import re
from pathlib import Path

import quantlab

SOURCES = sorted(Path(quantlab.__file__).parent.glob("*.py"))


def test_no_arpack_call_in_the_library():
    # every eigen/singular value in src/ comes from one of the certified
    # solvers (banded-Cholesky bracket, chain subspace iteration, dense LAPACK)
    assert SOURCES
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"eigsh|svds|Arpack", line)
    ]
    assert hits == []
