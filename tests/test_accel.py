"""Kernel status codes."""


def test_status_codes_distinct():
    from gflowlab import _accel
    codes = {_accel.STATUS_OK, _accel.STATUS_STOP, _accel.STATUS_CONE,
             _accel.STATUS_SOLVER, _accel.STATUS_PINCH, _accel.STATUS_CFL}
    assert len(codes) == 6
