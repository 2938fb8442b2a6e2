import numpy as np
import pytest

from bigjump.events import (
    DkProxy,
    JumpCount,
    SupExceed,
    TerminalExceed,
    ValueAt,
    format_event,
    parse_event,
)
from bigjump.paths import CadlagPath, build_jump_path


def test_parse_format_round_trip():
    for text in (
        "terminal_exceed:1.0",
        "value_at:0.5,2.0",
        "sup_exceed:0.25",
        "jump_count:2,0.5",
        "dk_proxy:1,0.5",
    ):
        ev = parse_event(text)
        assert parse_event(format_event(ev)) == ev


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_event("nope:1")
    with pytest.raises(ValueError):
        parse_event("value_at:0.5")
    with pytest.raises(ValueError):
        parse_event("value_at:1.5,2.0")  # time outside [0,1]
    with pytest.raises(ValueError):
        parse_event("jump_count:0,1.0")
    for text in (
        "terminal_exceed:nan",
        "terminal_exceed:inf",
        "value_at:0.5,nan",
        "value_at:nan,1.0",
        "sup_exceed:nan",
        "sup_exceed:inf",
        "jump_count:2,nan",
        "jump_count:2,inf",
        "dk_proxy:0,nan",
        "dk_proxy:0,inf",
    ):
        with pytest.raises(ValueError, match="finite|lie in"):
            parse_event(text)


def test_decisions_on_simple_paths():
    p = build_jump_path(np.array([0.25, 0.75]), np.array([2.0, 1.0]))
    assert TerminalExceed(2.5).decide(p)
    assert not TerminalExceed(3.0).decide(p)
    assert ValueAt(0.5, 1.5).decide(p)
    assert not ValueAt(0.2, 1.5).decide(p)
    assert SupExceed(2.9).decide(p)
    assert JumpCount(2, 0.5).decide(p)
    assert not JumpCount(2, 1.5).decide(p)
    assert DkProxy(0, 0.9).decide(p)  # largest jump 2 > 1.8
    assert not DkProxy(1, 0.9).decide(p)


def test_continuous_path_never_proxies():
    ramp = CadlagPath(np.array([0.0, 1.0]), np.array([0.0, 5.0]), np.array([0.0, 5.0]))
    for k in (0, 1, 2):
        assert not DkProxy(k, 0.1).decide(ramp)
    assert TerminalExceed(4.0).decide(ramp)


def test_dk_separation_rules():
    assert TerminalExceed(1.0).dk_separation(0) == pytest.approx(0.5)
    assert TerminalExceed(1.0).dk_separation(1) is None
    assert ValueAt(0.5, 1.0).dk_separation(0) == pytest.approx(0.5)
    assert ValueAt(0.5, 1.0).dk_separation(2) is None
    assert SupExceed(1.0).dk_separation(0) == pytest.approx(0.5)
    assert SupExceed(0.0).dk_separation(0) is None
    assert JumpCount(2, 0.5).dk_separation(1) == pytest.approx(0.25)
    assert JumpCount(2, 0.5).dk_separation(2) is None
    assert DkProxy(1, 0.5).dk_separation(1) == pytest.approx(0.5)
    assert DkProxy(0, 0.5).dk_separation(1) is None
