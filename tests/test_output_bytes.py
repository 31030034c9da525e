"""The CLI's output bytes, pinned.

A refactor must leave every trace, manifest and stdout byte as it was.  This
test holds `run` of each bundled spec (SHA-256 of trace.csv and manifest.txt),
`compare` on the three scenarios and one lossy `sweep-links` to recorded
values; a change that alters an output on purpose records them again and says
so.  metrics.csv is left out: its per-node rows print numpy scalars with
`repr`, whose text depends on the numpy version.
"""

import contextlib
import hashlib
import io

import pytest

from dipsync.cli import main

RUN_SHA256 = {
    "grid16-baf": (
        "bc449cff3236eb31447cd29a0230b80bd3ce54fa7e70c8e835f46d5ce028a63e",
        "64329ff7fdcebca7f7bac881e70ea76d47e423a38f21bec3b8c7cf9c6c3885e5"),
    "grid16-tsau": (
        "cd86d0f456688b2f8277d45c4605d5c57672245a5f957859ed8cc21e71415fe1",
        "1c9d992dcaeff0ad9256b19a5e3e5bfe32d8b26db1c47be84cf6df2b65daf7e2"),
    "grid16-uaf": (
        "9bbc693657c9657182eb38e09e4493aa287fb1077206b08d9e97d011f06caa83",
        "cc37e07b81fdccebaacf4bd3453142611c83002fc883bcabd59b0d26aec05210"),
    "malicious16-baf": (
        "de624c33b6e1a816034267921f465c430966991b2c22cadde8543af07c388ede",
        "4c3e312c970bd680b2a1bfb12e9114bb4684b21d90d3a2690af85c79e121771f"),
}

COMPARE_STDOUT = {
    "grid16": (
        "protocol,E_dip_min,k_dip_min,V_k_dip\n"
        "tsau,0.0002772582513769402,18.933333333333334,0.06222222222222219\n"
        "uaf,0.00029171555152843567,36.86666666666667,0.11555555555555558\n"
        "baf,0.0003495075664214845,20.266666666666666,0.19555555555555557\n"
        "check uaf_lowest_variance: FAIL\n"
        "check baf_lowest_error: FAIL\n"),
    "line16": (
        "protocol,E_dip_min,k_dip_min,V_k_dip\n"
        "tsau,0.00021037741465098624,22.6,2.5066666666666673\n"
        "uaf,0.0002347780417016887,26.866666666666667,12.515555555555553\n"
        "baf,0.00027761486516912534,13.766666666666667,2.662222222222223\n"),
    "malicious16": (
        "protocol,E_dip_min,k_dip_min,V_k_dip\n"
        "tsau,0.0003420069219399783,17.866666666666667,0.11555555555555558\n"
        "uaf,0.00034434617654926315,35.4,1.0399999999999998\n"
        "baf,0.0003328892971626011,28.8,1.2266666666666666\n"
        "check baf_variance_dominates: FAIL\n"
        "check uaf_slowest: PASS\n"),
}

SWEEP_ARGS = "sweep-links --protocol baf --p 1 0.75 0.5 --repeats 2 --ticks 1000"
SWEEP_STDOUT = (
    "p,median_E_dip_min,min_E_dip_min,max_E_dip_min,median_k_dip_min,dip_persists\n"
    "1.0,0.00028338269798466783,0.00021725782954785112,0.0003495075664214845,"
    "19.916666666666664,true\n"
    "0.75,0.0002835564472645121,0.0002819200554656213,0.0002851928390634029,62.2,true\n"
    "0.5,0.00031829241417547687,0.00030929855560735315,0.00032728627274360064,"
    "47.06666666666667,true\n")


def stdout_of(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(args) == 0
    return buf.getvalue()


@pytest.mark.parametrize("spec", RUN_SHA256)
def test_run_of_a_bundled_spec_keeps_its_bytes(spec, tmp_path):
    stdout_of(["run", spec, "--out", str(tmp_path)])
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("trace.csv", "manifest.txt"))
    assert digests == RUN_SHA256[spec]


@pytest.mark.parametrize("scenario", COMPARE_STDOUT)
def test_compare_keeps_its_bytes(scenario):
    assert stdout_of(["compare", "--scenario", scenario, "--ticks", "2000"]) \
        == COMPARE_STDOUT[scenario]


def test_sweep_links_keeps_its_bytes():
    assert stdout_of(SWEEP_ARGS.split()) == SWEEP_STDOUT
