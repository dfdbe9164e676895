import contextlib
import sys
import warnings
from pathlib import Path

# Allow running the suite from a fresh checkout without installing first.
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Hypothesis imports this module when it reports a failing test, and its
# libcst import warns of a deprecation; under filterwarnings = error that
# warning would abort the whole run. Importing it here, once, with the
# warning ignored, lets a failure be reported like any other.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
