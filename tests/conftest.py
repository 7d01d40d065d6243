import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# database=None keeps Hypothesis' example database off, but Hypothesis
# also caches the constants it mines from source files under its home
# directory (./.hypothesis by default). Keep that cache in the system
# temporary directory so test runs leave nothing in the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mimufusion-hypothesis")
