import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches constants parsed from the sources under its home
# directory (``.hypothesis/`` in the working directory by default), even with
# database=None; keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "hyperloc-hypothesis")
