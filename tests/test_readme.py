"""README's Python workflow, run as written on a small `.c` corpus, so the
public names it calls stay exported."""

import re
from decimal import Decimal
from pathlib import Path

from .corpusgen import CLASS_IDS, class_content

README = Path(__file__).resolve().parent.parent / "README.md"


def workflow_block() -> str:
    """The first Python block after README's "## Workflow" heading."""
    text = README.read_text(encoding="utf-8").split("\n## Workflow\n", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)


def test_workflow_example_runs_as_written(tmp_path, monkeypatch):
    # 3 classes x 4 files, each named by its CWE
    for class_idx, class_id in enumerate(CLASS_IDS[:3]):
        for file_idx in range(4):
            path = tmp_path / "corpus" / f"{class_id.replace('-', '')}_{file_idx}.c"
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(class_content(class_idx, file_idx, 2048, seed=7))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(workflow_block(), str(README), "exec"), scope)
    assert len(scope["index"].entries) == 12
    assert (tmp_path / "case_train.xml").is_file()
    assert (tmp_path / "case_test.xml").is_file()
    assert len(scope["warnings"]) == 12
    assert scope["first"].per_config[0].pct == Decimal("100.00")
