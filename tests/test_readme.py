"""The README's library sketch runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch(tmp_path, monkeypatch):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    monkeypatch.chdir(tmp_path)  # the sketch writes ball.svg
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    lines = code.splitlines()
    comments = [line.split("# ", 1)[1] for line in lines if line.startswith("print(")]
    assert comments and len(printed) == len(comments)
    for got, comment in zip(printed, comments):
        # a comment opens with the printed value, then ':' or ',' and a note
        assert re.match(re.escape(got) + r"($|[:,])", comment), (got, comment)
    assert (tmp_path / "ball.svg").stat().st_size > 0
