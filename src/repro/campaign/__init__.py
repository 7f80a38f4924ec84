"""Declarative scenario campaigns (substrate S14): specs in, sweeps out.

The engine (PR 1) evaluates any flat scenario list and the store
(PR 2) makes evaluation incremental — but until now every new study
shape needed Python edits.  ``repro.campaign`` closes that gap: a
campaign is a plain JSON/TOML mapping naming a *scenario family* (from
the engine's registry), a set of *axes* (grid or seeded-random
samplers per scenario field) and fixed *defaults*;
:func:`compile_campaign` turns it into a deterministic scenario
stream that flows through ``run_batch`` / ``run_cached_batch``
unchanged — cached, resumable and shardable exactly like the
hand-coded sweeps, with byte-identical outputs.

Layering: ``campaign`` sits beside :mod:`repro.experiments`, above
:mod:`repro.engine` (whose registry it resolves families through) and
below :mod:`repro.cli`, which exposes ``python -m repro campaign``.
Built-in specs re-express the paper's studies (Figure 5 grid,
acceptance study) plus the new simulation-validation and EDF
campaigns; a spec file can describe any grid over any registered
family without touching this package.
"""

from repro.campaign.builtin import (
    builtin_campaign,
    builtin_names,
    edf_study_campaign_spec,
    sim_validate_campaign_spec,
)
from repro.campaign.resolve import parse_set_overrides, resolve_spec
from repro.campaign.samplers import SAMPLERS, expand_axis
from repro.campaign.spec import (
    SPEC_KEYS,
    CompiledCampaign,
    compile_campaign,
    load_spec,
)

__all__ = [
    "SPEC_KEYS",
    "CompiledCampaign",
    "compile_campaign",
    "load_spec",
    "SAMPLERS",
    "expand_axis",
    "builtin_campaign",
    "builtin_names",
    "sim_validate_campaign_spec",
    "edf_study_campaign_spec",
    "parse_set_overrides",
    "resolve_spec",
]
