"""Where the benchmark finds the sources it measures.

The benchmark always measures the ``lambdacol`` sources of the checkout it
sits in (``src/``) and checks answers with the test oracles of that checkout
(``tests/oracles.py``), never an installed copy.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"


class MissingSources(RuntimeError):
    """The checkout lacks the library sources or the test oracles."""


def require_sources() -> None:
    """Fail unless the checkout has both; put ``src`` first on ``sys.path``."""
    missing = [
        str(p.relative_to(ROOT))
        for p in (SRC / "lambdacol" / "__init__.py", ORACLES)
        if not p.is_file()
    ]
    if missing:
        raise MissingSources(f"not found in {ROOT}: {', '.join(missing)}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def load_library():
    """Import ``lambdacol`` from the checkout and the oracles that check it."""
    require_sources()
    import lambdacol

    where = Path(lambdacol.__file__).resolve()
    if not where.is_relative_to(SRC):
        raise MissingSources(f"lambdacol imported from {where}, not from {SRC}")
    spec = importlib.util.spec_from_file_location("lambdacol_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return lambdacol, oracles
