"""Each derived stage is computed once per analysis and shared by its consumers."""

import json
import sys
from collections import Counter

from littleweyl import cli, limits
from littleweyl.spherical import analyze, compression_cone, is_admissible
from littleweyl.weyl import weyl_from_limits


def _record_limit_calls(monkeypatch) -> list:
    """Route every littleweyl name bound to limit_subspace through a recorder
    of (subspace, direction) pairs."""
    calls = []
    original = limits.limit_subspace

    def recording(lie, e, x):
        calls.append((e, tuple(x)))
        return original(lie, e, x)

    for name, module in list(sys.modules.items()):
        if name == "littleweyl" or name.startswith("littleweyl."):
            if getattr(module, "limit_subspace", None) is original:
                monkeypatch.setattr(module, "limit_subspace", recording)
    return calls


def test_compression_cone_is_computed_once(a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    assert compression_cone(an) is compression_cone(an)


def test_weyl_from_limits_reads_the_chamber_table(monkeypatch, a2, so3_subalgebra):
    an = analyze(a2, so3_subalgebra)
    ok, rows = is_admissible(an)
    assert ok and rows
    calls = _record_limit_calls(monkeypatch)
    report = weyl_from_limits(an)
    assert calls == []
    assert weyl_from_limits(an, "coroot") is report
    assert len(report.chambers) == len(rows)


def test_admissible_cli_flows_each_chamber_once(monkeypatch, capsys):
    calls = _record_limit_calls(monkeypatch)
    assert cli.main(["admissible", "A1xA1_diag_w0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strategy"] == "self"
    assert sorted(Counter(calls).values()) == [1] * len(report["chambers"])
