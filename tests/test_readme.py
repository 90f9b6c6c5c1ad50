"""The README's examples run as written: its Python block, and every
subcommand on its JSON config."""

import json
import pathlib
import re

import pytest

from nssol.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_python_block_runs():
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("command", ["describe", "profile", "scale", "field", "verify",
                                     "blowup"])
def test_readme_config_runs_every_subcommand(tmp_path, capsys, command):
    (config,) = _blocks("json")
    path = tmp_path / "cfg.json"
    path.write_text(config)
    out = tmp_path / f"{command}.out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["path"] == str(out)
    assert out.stat().st_size > 0
