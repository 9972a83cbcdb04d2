"""Byte-for-byte pins of the JSON reports of cheap commands.

Each digest is the sha256 of the report file the command writes.  A change
that alters any report byte (a field, its order, a printed scalar) turns
the matching case red.  The benchmark pins the reports of its own
workloads; these cover the other commands, with the default configuration
or with rational family parameters.
"""

import hashlib
import json

import pytest

from svir.cli import main

GOLDEN = {
    "bracket": (
        ("bracket", "L[1,0]", "L[-1,0]"),
        "b8112c51312f583e8e212edc875abe5272324b35a0805d0d934242aefaff4aba"),
    "act-SA": (
        ("act", "--family", "SA", "L[1,0]", "x[0,1]"),
        "d84e2098c8c2ba852a6516e3f0e94e61d64a15d77442117d8989aacde30e3177"),
    "act-SAprime": (
        ("act", "--family", "SAprime", "G[1/2,0]", "x[0,0]"),
        "c346b7bed72641be1bc40719e9534cbf029d07a4e2bf7854e9f0d75f8cc39dd4"),
    "act-SBprime": (
        ("act", "--family", "SBprime", "L[1,0]", "y[-1,0]"),
        "3104acff78193f17b93a674bbafe4ee876f25967d6a31fb43be9d7d6f0a56fc9"),
    "antisym-r1": (
        ("antisym", "--radius", "1"),
        "770a3981e8b06839a4ee2b2da31586157422b57377f3e273d0bf537b0306ebac"),
    "jacobi-fuzz-r1": (
        ("jacobi-fuzz", "--radius", "1"),
        "790d8be5852f569562a22442703c2df467461859e8c9d7cc82752929cef75d85"),
    "rep-fuzz-SA-r1-v1": (
        ("rep-fuzz", "--family", "SA", "--radius", "1", "--vector-radius", "1"),
        "aad4df26031b284f7afc11b1ec35302ba8238165c07b47af06485de0cf1c6df9"),
    "rep-fuzz-SA-r1/2": (
        ("rep-fuzz", "--family", "SA", "--radius", "1/2"),
        "8a043c4b85fff919240f90805ce096b9e826e7d61d7dd7566712536d91d3d9f9"),
    "cone-basis": (
        ("cone-basis", "--k", "2"),
        "7c70fed97656244fb2469be115fbab2e3d59fe5f24d43eaae3c8511d76ca8539"),
    "adapted-basis": (
        ("adapted-basis", "--mu", "[1,2]"),
        "070a2f47b5d42661145eceab7d0d456e4e4c9100c9a67a02b78dd7a83e2951ad"),
    "adapted-basis-some-zero": (
        ("adapted-basis", "--mu", "[0,3]"),
        "ee86b682f87ae9df8c25cb3c87834656c0d5f93027eb2172df852d52f0c60f0a"),
    "adapted-basis-sign-flips": (
        ("adapted-basis", "--mu", "[-2,1]"),
        "a30285261d7fae84c67ecd7e1246f95761ff3f5506c86f5b067618fb2a14d7a6"),
    "ladder": (
        ("ladder", "--m", "4"),
        "74eb5373efef37d29b468a255ed1176be371a1156be8ea7d132e1c0fc132d795"),
    "iso-check": (
        ("iso-check", "--m", "[[1]]", "--s", "[1/2]", "--mprime", "[[2]]",
         "--sprime", "[1]", "--alpha", "2"),
        "e9a99b76806c08c5fb17e797c85bfb97904c77a61e1424321a7780b7498394f4"),
    "simplicity-SBprime-r2": (
        ("simplicity", "--family", "SBprime", "--radius", "2"),
        "d3bfb4f83af5effa6ea2c4b5e8b35bf6b77f859dbdb64f64f771e2a75ad807c1"),
    "ghw": (
        ("ghw", "--family", "SA", "--vector", "x[0,0]", "--k", "1", "--radius", "2"),
        "9d62ebb41594d88e663acb6b4c087f54a23844a2716758f1427199e4d7fe6244"),
    "quotient": (
        ("quotient", "--family", "SBprime", "--seeds", "y[0,0]", "--radius", "2"),
        "1a4f4b1a83975f7299431995bb76641127aac86dd2813fcf64d7e6fa2228641b"),
    "simplicity-SA-r3": (
        ("simplicity", "--family", "SA", "--radius", "3"),
        "3171ee9abb3a7ba2d084c6d2e843f43f1372ccd3480b160d90004e56c809f3da"),
    "simplicity-SAprime-r2": (
        ("simplicity", "--family", "SAprime", "--radius", "2"),
        "1a39517f2864150d4b2e3c3049ba0a60e15fe1c8ded2420fd48ab075c9abe23a"),
    "quotient-SAprime": (
        ("quotient", "--family", "SAprime", "--seeds", "x[0,0]", "--radius", "2"),
        "3c85a4d53069469f4b9a4011a993d9ae0f07c61a3d1f91ba6aa7940943a5e068"),
}


# Reports with true fractions: linear denominators in the parameters, a
# non-linear one (a^2 + 1) and a non-monic linear one (2*b + 4), and a
# bracket whose coefficients cancel a non-linear factor.
RATIONAL_GOLDEN = {
    "act-SA-linear-params": (
        {"params": {"a": "1/(a+1)", "b": "7/(b+4)"}},
        ("act", "--family", "SA", "G[1/2,0]", "y[1/2,0]"),
        "d3816e356dd840754bd0de928fcb58725f24df262ed9681fa47ac63bc8034821"),
    "act-SA-nonlinear-params": (
        {"params": {"a": "1/(a^2 + 1)", "b": "(b+1)/(2*b + 4)"}},
        ("act", "--family", "SA", "L[1,0] + G[1/2,1]", "x[0,1] + y[-1/2,0]"),
        "e3fd4f05b5a36323887fcca16e33084861fb414a590234a7197e9d8086c37cf8"),
    "bracket-rational": (
        {},
        ("bracket", "(1/(d1^2+d2))*L[1,0]", "((d1^2+d2)/(d1+1))*L[0,0]"),
        "5eab89d4aebf1d32abffc62be8faafa8fe230377f441dbc2a4e10e0e33f65554"),
}


# Reports under a non-default session: rank 3, specialized family
# parameters, which the report lists under ``specialized_params``, and an
# integral sigma.
CONFIGURED_GOLDEN = {
    "adapted-basis-n3": (
        {"n": 3},
        ("adapted-basis", "--mu", "[1,2,3]"),
        "a0d8a6a72748f05d80f891ab57179defba99633886f2acec31b31d1809a620e1"),
    "simplicity-SA-specialized": (
        {"params": {"a": "0", "b": "1/2"}},
        ("simplicity", "--family", "SA", "--radius", "1"),
        "055634967bb21cb4e7f90ecefacb1e9328f7cc880138ab73e65dfb450ec3f22c"),
    "rep-fuzz-SAprime-specialized": (
        {"params": {"a'": "1/2"}},
        ("rep-fuzz", "--family", "SAprime", "--radius", "1/2"),
        "559f46c84727bf333e736b66ad9dedd8337ebe8337ed04a7dff95ef08127cef8"),
    "quotient-SAprime-specialized": (
        {"params": {"a'": "0"}},
        ("quotient", "--family", "SAprime", "--seeds", "x[0,0]", "--radius", "3/2"),
        "b85ba6bcaf3a46cc604f54dd07ed40afbbf8bb310838ce2296836c0484fb7bd6"),
    # integral sigma: SA' has a y_0 and SB' an x_0 beside their special vertex
    "simplicity-SAprime-r2-integral-sigma": (
        {"sigma": ["0", "0"]},
        ("simplicity", "--family", "SAprime", "--radius", "2"),
        "1c4405d5ab452d5f356bfef12f41a98c031e63be7eaf2daca272614e789471e3"),
    "simplicity-SBprime-r2-integral-sigma": (
        {"sigma": ["0", "0"]},
        ("simplicity", "--family", "SBprime", "--radius", "2"),
        "96670620556b83eba0853b8b3bc4eebec017d559e1a62388aa8d534d777e5be7"),
    "rep-fuzz-SBprime-r1-integral-sigma": (
        {"sigma": ["0", "0"]},
        ("rep-fuzz", "--family", "SBprime", "--radius", "1"),
        "4ce961b5a9dbbc2fe929a045d6b49627e4df6865a5b534b241398f515232013d"),
}


def report_digest(tmp_path, argv, config=None):
    out = tmp_path / "report.json"
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ("--config", str(path), *argv)
    main(["--output", str(out), *argv])
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_are_pinned(tmp_path, name):
    argv, digest = GOLDEN[name]
    assert report_digest(tmp_path, argv) == digest


@pytest.mark.parametrize("name", sorted(RATIONAL_GOLDEN))
def test_rational_report_bytes_are_pinned(tmp_path, name):
    config, argv, digest = RATIONAL_GOLDEN[name]
    assert report_digest(tmp_path, argv, config) == digest


@pytest.mark.parametrize("name", sorted(CONFIGURED_GOLDEN))
def test_configured_report_bytes_are_pinned(tmp_path, name):
    config, argv, digest = CONFIGURED_GOLDEN[name]
    assert report_digest(tmp_path, argv, config) == digest
