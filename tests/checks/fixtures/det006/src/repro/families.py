"""Registry stubs for the DET006 fixture (shape-matched, not run)."""


class ScenarioFamily:
    def __init__(self, name, worker):
        self.name = name
        self.worker = worker


def register_family(family):
    return family
