import json

import pytest

from mvtk import cli


def test_example_a4_json(capsys):
    # the A4 identity: D(Z_tau) equals the flag function of the A4 module
    assert cli.main(["example", "a4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["example"] == "a4"
    assert out["tableau"] == [[1, 2], [3, 4], [5]]
    assert out["equal"] is True
    assert out["mv"] == out["flag"]


def test_example_text_and_unknown_name(capsys):
    assert cli.main(["example", "a4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "equal"
    with pytest.raises(SystemExit):
        cli.main(["example", "a6"])
