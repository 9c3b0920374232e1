"""One Hypothesis profile for the whole suite, so a run is reproducible:
no per-example deadline (timings on a shared host vary), a fixed example
sequence instead of a fresh random seed, and no example database.

Hypothesis also caches the constants it reads from local source files in
its home directory, ``.hypothesis/`` in the working directory by default;
that home moves to the system temporary directory, so a run writes
nothing into the tree."""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("reproducible")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "doubledet-hypothesis")
