"""Host-speed correction arithmetic on hand-set probe samples."""

import speed


def _probe(samples):
    probe = speed.SpeedProbe()
    probe.starts = [t for t, _ in samples]
    probe.durations = [d for _, d in samples]
    return probe


def test_interval_is_scaled_by_the_speed_sampled_inside_it():
    ref = speed.REFERENCE_LOOP_S
    # host at half speed: the probe loop took twice its reference time
    probe = _probe([(1.0, 2 * ref), (2.0, 2 * ref), (3.0, 2 * ref)])
    assert probe.speed(0.5, 3.5) == 0.5
    assert abs(probe.corrected(0.5, 3.5) - (3.0 - 6 * ref) * 0.5) < 1e-12


def test_short_interval_uses_the_samples_around_it():
    ref = speed.REFERENCE_LOOP_S
    probe = _probe([(0.9, ref), (1.05, 4 * ref), (1.2, ref), (1.4, ref)])
    # 10 ms at 1.0: the window widens to MIN_WINDOW, [0.755, 1.255], three samples
    assert abs(probe.speed(1.0, 1.01) - (1 + 0.25 + 1) / 3) < 1e-12
    assert probe.speed(50.0, 50.01) == 1.0  # no samples at all
