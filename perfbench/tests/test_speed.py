"""The scaling of measured times to the reference speed."""
import speed


def test_factor_uses_the_two_samples_around_a_call():
    machine = speed.Speed()
    machine.samples = [0.004, 0.002, 0.006, 0.001]
    assert machine.factor(1) == speed.REFERENCE_S / 0.004
    assert machine.factor(0) == speed.REFERENCE_S / 0.003


def test_tick_samples_only_when_due():
    machine = speed.Speed()
    first = machine.tick()  # nothing sampled yet: due at once
    assert first == 0 and len(machine.samples) == 1
    machine._due = float("inf")
    assert machine.tick() == 0 and len(machine.samples) == 1
    machine._due = 0.0
    assert machine.tick() == 1 and len(machine.samples) == 2


def test_run_factor_is_over_every_sample():
    machine = speed.Speed()
    machine.samples = [0.001, 0.003, 0.002]
    assert machine.run_factor() == speed.REFERENCE_S / 0.002
