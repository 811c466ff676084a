"""Golden pins: sha256 of the exact bytes written by default-seed commands.

Fixed-seed output is byte-identical by contract, so any change to the RNG
draw order, the routing arithmetic, the estimators or the report formatting
shows up here.  The digests were taken once and must not be edited to make
a change pass: a mismatch means the change altered seeded results.
"""
import hashlib

import pytest

from qwalk.cli import main

GOLDEN = [
    ("jeong_steps7", ("jeong", "--steps", "7", "--particles", "2000"),
     "5a2274f41935d675fd55d024dd67365388138f9d6b1037f59bf7c4e8e8693116"),
    ("robens_taps", ("robens", "--taps", "--format", "json", "--particles", "2000"),
     "12ff94a8d2b1519f6b84739b8c297b93a8d771c5537bb31b5e53b40c61051499"),
    ("robens_minus", ("robens", "--removal", "minus", "--format", "json",
                      "--particles", "2000"),
     "37b6aac6f4a17dfa2317444ee98bf83d7103ecb693bb0c368fd7aeb5571bc7eb"),
    ("compare_robens", ("compare", "--network", "robens", "--format", "json",
                        "--particles", "2000"),
     "bdb0ca386c1c27ed1107d4ab41a8bf4aa97b35778f514d2c8e2f6b049042acb1"),
    ("lgi", ("lgi", "--replicates", "2", "--particles", "2000", "--workers", "1"),
     "598e2397d6db84514f82475a02c121488c8903f00331b8e3919437c5d9a6ba50"),
    # the JSON report of every command, and the summed replicates of both
    # site commands
    ("oracle_json", ("oracle", "--steps", "5", "--format", "json"),
     "c1b3e29ed6cf49cc3989ff0782ecba3248198f18a8159cff9644f3f385a9c6bf"),
    ("compare_jeong_json", ("compare", "--network", "jeong", "--steps", "6",
                            "--gamma", "0.98", "--format", "json",
                            "--particles", "2000"),
     "2c11478ee619e3a9ce8ad37c77c577c64ff0208ada30b93a3bc9c90a2437af63"),
    ("lgi_json", ("lgi", "--replicates", "2", "--particles", "2000",
                  "--workers", "1", "--format", "json"),
     "93383ded54b865f31a9da81cbec94e63fb9b3782710871ddca0ac8f54e8c2544"),
    ("robens_plus_taps_replicates", ("robens", "--removal", "plus", "--taps",
                                     "--replicates", "2", "--format", "json",
                                     "--particles", "2000"),
     "52e84957703bab6e4e8f8db6134bd673b1d726fc4e8ab08de2a7c354a50b048e"),
    ("jeong_replicates_json", ("jeong", "--steps", "4", "--replicates", "3",
                               "--format", "json", "--particles", "2000"),
     "2b83f49ac5d9b67d0c6d2e8e13177d324cbfde2eaad5a4f4cffadea2f7f900c0"),
]


@pytest.mark.parametrize("name,argv,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_default_seed_output_bytes_are_pinned(tmp_path, monkeypatch, capsys,
                                              name, argv, digest):
    monkeypatch.delenv("QWALK_SEED", raising=False)
    out = tmp_path / "report"
    assert main(list(argv) + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name,argv,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_pinned_bytes_hold_on_the_python_loop(tmp_path, monkeypatch, capsys,
                                              name, argv, digest):
    # the same bytes when the compiled kernel is unavailable
    monkeypatch.setattr("qwalk._kernel.load", lambda: None)
    monkeypatch.delenv("QWALK_SEED", raising=False)
    out = tmp_path / "report"
    assert main(list(argv) + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: run between the forward and the backward pass of the golden commands
INTERLEAVED = [("robens", "--gamma", "0.9", "--particles", "2000"),
               ("jeong", "--steps", "12", "--particles", "2000")]


@pytest.mark.parametrize("loop", ["kernel", "python loop"])
def test_pinned_bytes_hold_in_any_order_in_one_process(tmp_path, monkeypatch,
                                                       capsys, loop):
    # main() keeps its parser and each configuration's network for the rest
    # of the process, so no command may depend on what ran before it
    if loop == "python loop":
        monkeypatch.setattr("qwalk._kernel.load", lambda: None)
    monkeypatch.delenv("QWALK_SEED", raising=False)
    out = tmp_path / "report"
    sequence = GOLDEN + [(None, argv, None) for argv in INTERLEAVED] + GOLDEN[::-1]
    for name, argv, digest in sequence:
        assert main(list(argv) + ["--out", str(out)]) == 0
        capsys.readouterr()
        if digest is not None:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
