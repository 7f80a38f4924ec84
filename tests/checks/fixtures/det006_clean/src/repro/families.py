"""Registry stubs for the DET006 clean twin."""


class ScenarioFamily:
    def __init__(self, name, worker):
        self.name = name
        self.worker = worker


def register_family(family):
    return family
