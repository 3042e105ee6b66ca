import signal
import subprocess
import sys
import time

import speed
import workloads


def test_sampler_samples_while_active_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * speed.PERIOD_S:
            pass
    assert len(sampler.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scale_leaves_out_the_slowest_and_fastest_tenth():
    ref = speed.REFERENCE_S
    assert speed.scale([ref] * 8 + [100 * ref, 0.0]) == 1.0
    assert speed.scale([2 * ref]) == 0.5


def test_reference_probe_imports_no_toolkit_code():
    probe = workloads.__file__.replace("workloads.py", "setup_probe.py")
    code = ("import runpy, sys; sys.argv = ['setup_probe.py', '--reference']; "
            f"runpy.run_path({probe!r}, run_name='__main__'); "
            "print(any(m.startswith('zeiger') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    seconds, imported = out.stdout.split()
    assert float(seconds) > 0 and imported == "False"


def test_role_time_is_the_median_of_per_instance_medians():
    results = [
        workloads.Result(0.0, {("primary", "a"): [1.0, 3.0]}, 1, scale=3.0),
        workloads.Result(0.0, {("primary", "b"): [10.0], ("secondary", "b"): [7.0]}, 1),
        workloads.Result(0.0, {("primary", "c"): [5.0]}, 1),
    ]
    assert workloads.role_time(results, "primary") == 6.0               # a: 2 * 3
    assert workloads.role_time(results, "primary", scaled=False) == 5.0
    assert workloads.role_time(results, "secondary") == 7.0
