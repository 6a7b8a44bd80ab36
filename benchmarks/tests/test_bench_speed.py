import pytest

import speed


@pytest.fixture
def probes(monkeypatch):
    """speed.probe returns the queued values in order."""
    queue = []
    monkeypatch.setattr(speed, "probe", lambda: queue.pop(0))
    return queue


def test_correction_scales_by_the_mean_of_the_probes_around_the_work(probes):
    probes += [2 * speed.REF_PROBE_S, 4 * speed.REF_PROBE_S]
    scale = speed.SpeedScale()
    out = []
    scale.add(speed.BLOCK_S / 2, out)  # the CPU ran at a third of the nominal speed on average
    assert out == []  # queued until a block is full or a flush
    scale.flush()
    assert out == [pytest.approx(speed.BLOCK_S / 6)]
    assert scale.probes == [2 * speed.REF_PROBE_S, 4 * speed.REF_PROBE_S]


def test_fixed_part_is_not_scaled_and_short_pieces_share_a_block(probes):
    probes += [2 * speed.REF_PROBE_S, 2 * speed.REF_PROBE_S]
    scale = speed.SpeedScale()
    a, b = [], []
    n = int(speed.BLOCK_S / 0.01)
    for _ in range(n - 1):
        scale.add(0.01, a, b, fixed=0.004)
    assert a == []
    scale.add(0.01, a, b, fixed=0.004)  # fills the block: one probe for all
    assert a == b == [pytest.approx(0.006 / 2 + 0.004)] * n
    assert not probes


def test_a_probe_of_its_own_scales_by_its_own_reference():
    scale = speed.SpeedScale(lambda: 0.12, ref=0.06)  # a CPU at half the nominal speed
    out = []
    scale.add(1.0, out)
    assert out == [pytest.approx(0.5)]
