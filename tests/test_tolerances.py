"""Every numerical threshold lives in `gauge_mps._tol`."""
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gauge_mps"


def test_thresholds_are_named_only_in_tol_module():
    literal = re.compile(r"\de-\d")
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "_tol.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if literal.search(line)]
    assert not found, "threshold literals outside _tol.py:\n" + "\n".join(found)


def test_tol_module_imports_nothing():
    source = (PACKAGE / "_tol.py").read_text()
    assert not re.search(r"^\s*(import|from)\s", source, re.MULTILINE)
