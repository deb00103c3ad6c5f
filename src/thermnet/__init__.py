"""Deterministic simulator and analysis toolkit for a slotted wireless
body-temperature sensor network: frame codec, delay and energy models,
MAC scheduling, event-driven simulation, and monitoring-side analysis.

The top level re-exports what a scenario run needs; everything else is
imported from its submodule (``thermnet.frames``, ``thermnet.monitor``, ...).
"""

from .config import NodeSpec, ScenarioConfig
from .sim import run_scenario
from .traces import ConstantTrace

__version__ = "0.1.0"

__all__ = ["ConstantTrace", "NodeSpec", "ScenarioConfig", "__version__", "run_scenario"]
