"""The README's CLI quick start, run as written: the two model files it shows,
then each `$ lea ...` example, whose stdout must be the lines printed under it."""

import re
import shlex
from pathlib import Path

from lea.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> tuple[list[str], str]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI quick start"):]
    models = re.findall(r"```json\n(.*?)\n```", section, re.S)[:2]
    examples = re.search(r"```sh\n(.*?)\n```", section, re.S).group(1)
    return models, examples


def _run(line: str, capsys) -> str:
    """stdout of a shell line made of `lea` commands joined by && and
    perhaps redirected with >, each run in process."""
    shown = []
    for command in line.split(" && "):
        words = shlex.split(command)
        assert words[0] == "lea", line
        target = None
        if ">" in words:
            words, target = words[: words.index(">")], words[-1]
        main(words[1:])
        out, err = capsys.readouterr()
        assert err == "", (command, err)
        if target is None:
            shown.append(out)
        else:
            Path(target).write_text(out, encoding="utf-8")
    return "".join(shown)


def test_readme_quick_start(tmp_path, monkeypatch, capsys):
    models, examples = _quick_start()
    monkeypatch.chdir(tmp_path)
    for name, body in zip(("m1.json", "n1.json"), models):
        Path(name).write_text(body + "\n", encoding="utf-8")
    blocks = examples.split("\n\n")
    assert len(blocks) == 7, blocks
    for block in blocks:
        prompt, *expected = block.splitlines()
        assert prompt.startswith("$ "), block
        assert _run(prompt[2:], capsys) == "".join(f"{l}\n" for l in expected), block
