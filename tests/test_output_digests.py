"""tools/output_digests.py --compare, on hand-made digest files."""

import json
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


@pytest.fixture
def tool():
    # compiled from its text, so no bytecode cache is written next to it
    module = types.ModuleType("output_digests")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), module.__dict__)
    return module


OLD = {"pmf --m 2 --k 1": [0, "aa"], "ode --lambda 1 --k 1 --t 1": [0, "bb"],
       "simulate --model birth": [1, "cc"], "demo.py": [0, "dd"]}


@pytest.mark.parametrize("new,changed", [
    (dict(OLD), []),
    # same output, other exit code; other output, same exit code
    ({**OLD, "simulate --model birth": [2, "cc"], "demo.py": [0, "de"]},
     ["demo.py", "simulate --model birth"]),
    # a label only one side has
    ({**OLD, "pgf --m 2 --k 1": [0, "ee"]}, ["pgf --m 2 --k 1"]),
    ({k: v for k, v in OLD.items() if k != "pmf --m 2 --k 1"},
     ["pmf --m 2 --k 1"]),
])
def test_compare_lists_each_differing_label(tool, tmp_path, monkeypatch, capsys,
                                            new, changed):
    old_file, new_file = tmp_path / "old.json", tmp_path / "new.json"
    old_file.write_text(json.dumps(OLD))
    new_file.write_text(json.dumps(new))
    monkeypatch.setattr(tool, "collect", lambda: json.loads(new_file.read_text()))
    code = tool.main(["--compare", str(old_file)])
    out, err = capsys.readouterr()
    assert code == (1 if changed else 0)
    assert out.splitlines() == changed
    assert err == f"{len(changed)} of {len(new)} outcomes differ\n"


def test_each_refusal_exits_2_before_any_draw(tool, monkeypatch, capsys):
    from harrisproc import sampling

    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was made")

    monkeypatch.setattr(sampling, "RngStream", no_stream)
    for argv, message in tool.REFUSALS.items():
        assert tool.cli_main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
