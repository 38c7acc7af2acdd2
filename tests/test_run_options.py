"""One definition per run option.

A bad value is rejected with the same message whether it arrives as a
``repro run`` flag, as a ``repro campaign run`` axis or as a ``RunSpec``
field: the command line prints it once and exits 2, and a campaign
rejects the grid before anything is simulated or cached.  Off values
(``--telemetry 0``) mean off on every path.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import RunSpec
from repro.campaign.cache import ResultCache
from repro.cli import main as cli_main

#: case -> (repro run args, campaign run args or None, RunSpec fields)
BAD = {
    "telemetry -1": (["escat", "--telemetry", "-1"], ["--telemetry", "-1"],
                     dict(app="escat", telemetry=-1.0)),
    "telemetry nan": (["escat", "--telemetry", "nan"], ["--telemetry", "nan"],
                      dict(app="escat", telemetry=float("nan"))),
    "telemetry inf": (["escat", "--telemetry", "inf"], ["--telemetry", "inf"],
                      dict(app="escat", telemetry=float("inf"))),
    "policies on pfs": (["escat", "--policies", "escat_tuned"], None,
                        dict(app="escat", policy="escat_tuned")),
    "think for escat": (["escat", "--think", "none"], ["--set", "think_time=none"],
                        dict(app="escat", overrides={"think_time": "none"})),
    "unknown override": (None, ["--set", "bogus=1"],
                         dict(app="escat", overrides={"bogus": 1})),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_bad_value_same_message_everywhere(case, tmp_path, capsys):
    run_args, campaign_args, fields = BAD[case]
    with pytest.raises(ValueError) as info:
        RunSpec(**fields)
    message = str(info.value)
    if run_args is not None:
        assert cli_main(["run", *run_args]) == 2
        out = capsys.readouterr()
        assert out.err == f"repro run: {message}\n"
        assert out.out == ""
    if campaign_args is not None:
        cache = str(tmp_path / "cache")
        assert cli_main(["campaign", "run", "--apps", "escat", "--cache-dir", cache,
                         *campaign_args]) == 2
        out = capsys.readouterr()
        assert out.err == f"bad campaign grid: {message}\n"
        assert out.out == ""  # no run was queued, simulated or retried
        assert ResultCache(cache).entries() == []


def test_policies_message_names_both_options():
    with pytest.raises(ValueError, match=r"policies require filesystem='ppfs', "
                                         r"got filesystem='pfs'"):
        RunSpec("escat", policy="escat_tuned")


def test_telemetry_zero_is_off_on_every_path(tmp_path, capsys):
    assert cli_main(["run", "escat", "--telemetry", "0"]) == 0
    assert "telemetry:" not in capsys.readouterr().out

    cache = str(tmp_path / "cache")
    assert cli_main(["campaign", "run", "--apps", "escat", "--telemetry", "0",
                     "--cache-dir", cache, "--quiet"]) == 0
    capsys.readouterr()
    plain = RunSpec("escat")
    assert ResultCache(cache).entries() == [plain.run_hash]

    # A cached spec that no longer validates reads as unknown, not a crash.
    path = os.path.join(cache, plain.run_hash, "spec.json")
    with open(path) as fh:
        data = json.load(fh)
    data["overrides"] = {"bogus": 1}
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert ResultCache(cache).load_spec(plain.run_hash) is None
    assert cli_main(["campaign", "status", "--cache-dir", cache]) == 0
    assert f"{plain.run_hash}  ?" in capsys.readouterr().out
