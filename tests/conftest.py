"""Shared test settings: one hypothesis profile for every property test.

Derandomized, so a run is reproducible and a failure shows up on every run;
no deadline, because exact arithmetic and elimination times vary with the
drawn input and with the load on the machine.
"""
from hypothesis import settings

settings.register_profile("cochainlab", derandomize=True, deadline=None)
settings.load_profile("cochainlab")
