"""Slot-scheduled V2V intra-platoon communication simulator with a CSMA/CA baseline.

The package root imports nothing: import the submodule you need (`platoonsim.scenario`, ...)."""

__version__ = "0.1.0"
