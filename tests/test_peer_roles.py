"""The role decision rule, checked exhaustively against a brute-force oracle."""

import pytest

from wfdsim.peer import CLIENT, GO, decide_go_role, phase2_frames


def oracle_owner(intent_a, addr_a, intent_b, addr_b):
    """Independent argmax-with-tiebreak: rank candidates by declared intent,
    breaking ties in favour of the smaller address, and return the winner."""
    ranked = sorted([(intent_a, addr_a), (intent_b, addr_b)],
                    key=lambda c: (-c[0], c[1]))
    return ranked[0][1]


def test_higher_intent_wins():
    assert decide_go_role(7, 3, "host[0]", "host[1]") == GO


def test_lower_intent_loses():
    assert decide_go_role(3, 7, "host[0]", "host[1]") == CLIENT


def test_tie_broken_by_smaller_address():
    assert decide_go_role(7, 7, "host[0]", "host[1]") == GO
    assert decide_go_role(7, 7, "host[1]", "host[0]") == CLIENT


def test_out_of_range_intent_rejected():
    with pytest.raises(ValueError):
        decide_go_role(16, 0, "a", "b")
    with pytest.raises(ValueError):
        decide_go_role(0, -1, "a", "b")


def test_exhaustive_against_oracle():
    """All 16 x 16 intent pairs, both address orders: 512 cases."""
    cases = 0
    for mine in range(16):
        for theirs in range(16):
            for my_addr, peer_addr in (("host[0]", "host[1]"),
                                       ("host[1]", "host[0]")):
                role = decide_go_role(mine, theirs, my_addr, peer_addr)
                expected_owner = oracle_owner(mine, my_addr, theirs, peer_addr)
                assert role == (GO if expected_owner == my_addr else CLIENT), \
                    f"({mine}, {theirs}, {my_addr}, {peer_addr})"
                cases += 1
    assert cases == 512


def test_antisymmetric_exactly_one_owner():
    for mine in range(16):
        for theirs in range(16):
            a = decide_go_role(mine, theirs, "host[0]", "host[1]")
            b = decide_go_role(theirs, mine, "host[1]", "host[0]")
            assert {a, b} == {GO, CLIENT}


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (5, 3), (20, 10), (21, 11)])
def test_phase2_frame_count(n, expected):
    assert phase2_frames(n) == expected
