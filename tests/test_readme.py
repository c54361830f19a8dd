"""The README's Python examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run_in_order_in_one_namespace():
    # the second example reads the `system` the first one built
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for k, block in enumerate(blocks):
            exec(compile(block, f"README.md python example {k + 1}", "exec"), namespace)
    assert abs(namespace["concurrence"] - 1.0) <= 1e-10
    assert namespace["failed"] == []
