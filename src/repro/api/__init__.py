"""The public face of the library: backends, campaigns, sessions.

This package is the one import an experimenter needs::

    from repro.api import Session

    session = Session(scale="small", seed=0, jobs=4)
    study = session.study("LRU", "DIP", metric="IPCT", cores=2,
                          backend="badco")
    print(study.inverse_cv, study.guideline())

Layers, bottom up:

- :mod:`repro.api.backends` -- the :class:`SimulatorBackend` protocol
  and the :data:`BACKENDS` registry (``detailed`` / ``badco`` /
  ``interval`` / ``analytic``, plus anything registered at runtime);
- :mod:`repro.api.config` -- :class:`CampaignConfig`, the frozen value
  object that identifies a campaign and names its cache entry;
- :mod:`repro.api.engine` -- :class:`Campaign`, the grid runner: one
  plan/chunk/score/record route for every backend (``jobs>1`` fans
  chunks out over a process pool with bit-identical results);
- :mod:`repro.api.scales` -- the SMALL / MEDIUM / FULL size knobs;
- :mod:`repro.api.session` -- :class:`Session`, the fluent facade tying
  them together.
"""

from repro.api.backends import (
    BACKENDS,
    AnalyticBackend,
    BadcoBackend,
    DetailedBackend,
    IntervalBackend,
    SimulatorBackend,
    UnknownBackendError,
    backend_names,
    get_backend,
    register_backend,
)
from repro.api.config import RESULTS_VERSION, CampaignConfig
from repro.api.engine import Campaign, CampaignTiming
from repro.api.scales import (
    Scale,
    ScaleParameters,
    coerce_scale,
    default_cache_dir,
    default_model_store_dir,
    scale_parameters,
)
from repro.api.session import FullScaleEstimate, Session, TwoStageEstimate

__all__ = [
    # backends
    "BACKENDS", "SimulatorBackend", "UnknownBackendError",
    "DetailedBackend", "BadcoBackend", "IntervalBackend",
    "AnalyticBackend", "register_backend", "get_backend",
    "backend_names",
    # campaigns
    "CampaignConfig", "Campaign", "CampaignTiming", "RESULTS_VERSION",
    # scales
    "Scale", "ScaleParameters", "coerce_scale", "scale_parameters",
    "default_cache_dir", "default_model_store_dir",
    # facade
    "Session", "FullScaleEstimate", "TwoStageEstimate",
]
