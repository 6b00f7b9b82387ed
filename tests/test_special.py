"""The ufunc loader (``aesf._special``), each route in a fresh interpreter,
and the modules that importing aesf and running its commands load.

Which route this process took depends on which test module was collected
first (some import ``scipy.special``, some only aesf), so every route runs
in a subprocess.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import scipy.special

from aesf import models, numerics

SRC = str(Path(__file__).resolve().parents[1] / "src")

SAME_OBJECTS = """
    import scipy.special
    from aesf import models, numerics
    assert scipy.special.ndtr is numerics.ndtr
    assert scipy.special.ndtri is models.ndtri
"""

#: A meta-path finder that, on the first import of ``scipy.special._ufuncs``,
#: sets ``STARTED`` and sleeps, which holds the loader's window open.
SLOW_UFUNCS = """
    import sys, threading, time
    STARTED = threading.Event()

    class SlowUfuncs:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy.special._ufuncs" and not STARTED.is_set():
                STARTED.set()
                time.sleep(0.3)
            return None

    sys.meta_path.insert(0, SlowUfuncs())
"""


def run_python(*blocks: str) -> str:
    """Runs the code ``blocks`` in a fresh interpreter that imports this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", "\n".join(map(textwrap.dedent, blocks))],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_ufuncs_are_scipy_specials_objects():
    assert numerics.ndtr is scipy.special.ndtr
    assert models.ndtri is scipy.special.ndtri


def test_cli_import_skips_the_array_api_layer():
    run_python("""
        import sys
        import aesf.cli
        assert "scipy._lib._array_api" not in sys.modules
        assert "scipy.special" not in sys.modules  # no stand-in left behind
        assert "scipy.special._ufuncs" in sys.modules
    """)


def test_later_scipy_special_import_is_the_full_package():
    run_python("""
        import importlib.util, sys
        import aesf.cli
        importlib.util.find_spec("scipy.special")  # a lookup that loads nothing
        import scipy.special._gufuncs
        assert scipy.special.__file__.endswith("__init__.py")
        assert scipy.special.erf(0.0) == 0.0
        assert "scipy._lib._array_api" in sys.modules
        # Submodules loaded under the stand-in are bound on the real package.
        for name in ("_ufuncs", "_ufuncs_cxx", "_special_ufuncs", "_gufuncs"):
            assert getattr(scipy.special, name) is sys.modules["scipy.special." + name]
        assert not any(type(f).__module__ == "aesf._special" for f in sys.meta_path)
    """, SAME_OBJECTS)


def test_already_loaded_route_in_a_fresh_process():
    run_python("""
        import sys
        import scipy.special
        import aesf.cli
        assert scipy.special is sys.modules["scipy.special"]
    """, SAME_OBJECTS)


def test_fallback_route_gives_the_same_objects():
    run_python("""
        import sys

        class RefuseUnderStandIn:
            # Fails the load of _ufuncs under the stand-in (which has no
            # __file__), so the loader falls back to the plain import.
            def find_spec(self, name, path=None, target=None):
                parent = sys.modules.get("scipy.special")
                if name == "scipy.special._ufuncs" and not hasattr(parent, "__file__"):
                    raise ImportError("refused")
                return None

        sys.meta_path.insert(0, RefuseUnderStandIn())
        import aesf.cli
        assert "scipy._lib._array_api" in sys.modules
        assert sys.modules["scipy.special"].__file__.endswith("__init__.py")
    """, SAME_OBJECTS)


def test_concurrent_import_waits_for_the_window():
    run_python(SLOW_UFUNCS, """
        found = {}

        def import_erf():
            assert STARTED.wait(60)
            from scipy.special import erf  # finds the stand-in in sys.modules
            found["erf"] = erf

        thread = threading.Thread(target=import_erf)
        thread.start()
        import aesf.cli
        thread.join(60)
        assert not thread.is_alive()
        import scipy.special
        assert found["erf"] is scipy.special.erf
    """, SAME_OBJECTS)


def test_cli_import_leaves_numpy_random_to_the_first_long_draw():
    run_python("""
        import sys
        import aesf.cli
        from aesf import (BivariateGaussian, UnivariateNormal, derive_seed, esf_mc, models,
                          sample)
        assert "numpy.random" not in sys.modules
        # 20-word streams come from the kernel, which needs no numpy.random.
        esf_mc("variance", UnivariateNormal(0, 1), 20, 2.0, 50, 7)
        assert "numpy.random" not in sys.modules and models._BITGEN is None
        # Nor do the redraws of tied replicates: x ties with replicate 0's
        # first sample.
        m = BivariateGaussian(0.5)
        xs, _ = models._draw(m, models.derive_seeds(777, [0]), 30, models._philox_raw)
        assert esf_mc("kendall", m, 30, (float(xs[0, 4]), 0.123), 50, 777).tie_resamples >= 1
        assert "numpy.random" not in sys.modules and models._BITGEN is None
        sample(UnivariateNormal(0, 1), 5, derive_seed(7, 0))
        assert "numpy.random" in sys.modules
        assert type(models._BITGEN) is sys.modules["numpy.random"].Philox
    """)


def test_commands_import_no_further_modules(tmp_path):
    # Lazily loaded modules (numpy.polynomial, say) would be paid for inside
    # the first command instead of at import. The exception is numpy.random,
    # loaded by the first long-stream draw: converge's 80-word streams.
    random_adds = run_python("""
        import sys
        import aesf.cli
        before = set(sys.modules)
        import numpy.random
        print(sorted(set(sys.modules) - before))
    """).strip()
    out = run_python(f"""
        import contextlib, io, sys
        from aesf.cli import main

        gauss = '{{"variant":"bivariate_gaussian","rho":0.7}}'
        normal = '{{"variant":"univariate_normal","mu":0,"sigma":1}}'
        commands = [
            ["aesf-grid", "--figure", "3", "--nx", "5", "--ny", "5",
             "--out", r"{tmp_path / 'figure3.csv'}"],
            ["aesf-grid", "--model", "C", "--functional", "chatterjee", "--nx", "3", "--ny", "3",
             "--x-min", "-1", "--x-max", "1", "--y-min", "-1", "--y-max", "1",
             "--out", r"{tmp_path / 'chatterjee.csv'}"],
            ["esf", "--functional", "variance", "--model", normal, "--n", "20", "--x", "2",
             "--replicates", "50", "--json"],
            ["converge", "--functional", "kendall", "--model", gauss, "--x", "1", "--y", "0",
             "--schedule", "10,20,40", "--replicates", "20",
             "--out", r"{tmp_path / 'converge.csv'}"],
            ["sfdist", "--model", gauss, "--functional", "kendall", "--n", "30", "--x", "1",
             "--y", "0", "--replicates", "20", "--out", r"{tmp_path / 'sfdist.csv'}"],
        ]
        for argv in commands:
            before = set(sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            print(argv[0], sorted(set(sys.modules) - before))
    """)
    assert out.splitlines() == [
        "aesf-grid []", "aesf-grid []", "esf []", f"converge {random_adds}", "sfdist []"]


def test_csv_formatter_tables_built_on_first_use(tmp_path):
    # Importing the CLI builds no lookup table of the CSV formatter, and nor
    # does a file small enough for CPython alone; the first larger grid does.
    out = run_python(f"""
        import contextlib, io
        import aesf.cli as cli

        print(cli._format_tables.cache_info().currsize)
        for n in (5, 21):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["aesf-grid", "--figure", "3", "--nx", str(n), "--ny", str(n),
                                 "--out", r"{tmp_path / 'figure3.csv'}"]) == 0
            print(cli._format_tables.cache_info().currsize)
    """)
    assert out.split() == ["0", "0", "1"]


def test_every_exported_name_resolves():
    # A stale name in __all__ fails only an ``import *``.
    import aesf
    for info in pkgutil.iter_modules(aesf.__path__):
        module = importlib.import_module(f"aesf.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
