"""Pinned report bytes: the sha256 of stdout and the exit code of each report
verb, in text and in tsv, run through `cli.run` on a few built algebras, of
the theorem battery up to order 4, and of a failing battery up to order 3.

A change to any report's text shows here first. Update a digest only when
the new text is meant."""

import hashlib

import pytest

from skewlat import cli, constructions, core, ybe

ALGEBRAS = {
    "3R0": lambda: constructions.fixed("3R0"),
    "NC5R-x-chain-2": lambda: constructions.direct_product(constructions.fixed("NC5R"), constructions.chain((2,))),
    "chain-2-2-2": lambda: constructions.chain((2, 2, 2)),
    "rect-2-3": lambda: constructions.rectangular(2, 3),
    "3R0-x-rect-2-2": lambda: constructions.direct_product(constructions.fixed("3R0"), constructions.rectangular(2, 2)),
}

# (verb, algebra, format) -> (exit code, sha256 of stdout)
REPORTS = {
    ("structure", "3R0", "text"): (0, "0781893ed10d90c208477f9d66eda448232f6dab00ea4d164b46c3ac99ebee76"),
    ("structure", "3R0", "tsv"): (0, "b2a43a44c36f419a2df5d2f0624d04e8de347b705a67528cd1db54ace20448c2"),
    ("structure", "NC5R-x-chain-2", "text"): (0, "c45f330380bc040e5771e95e57e1778c436c35c95b4493041cf88acdaf3c1f30"),
    ("structure", "NC5R-x-chain-2", "tsv"): (0, "536a3854e19bd150bbf5f45f89d31f25581a3337a39bf793adf35f2e5c80cdd9"),
    ("structure", "chain-2-2-2", "text"): (0, "1680bd8e5f846f112e54e46aadc36db1a1be621cdf4be939109c76fba1085fe9"),
    ("structure", "chain-2-2-2", "tsv"): (0, "509e2f2d232fcc864782c09b9218edfd9fc8c644db0e1709219fb07a91face84"),
    ("structure", "rect-2-3", "text"): (0, "0268217c263d24fcd064b030204d3caf28e35009c54005ac2e8c2d1ebfe8a1f8"),
    ("structure", "rect-2-3", "tsv"): (0, "66220d3c4d6788f0f057de327a4bd635a27d9fe5787e48d883043ff9cf157ecb"),
    ("structure", "3R0-x-rect-2-2", "text"): (0, "20ea871c0cbe89d8b16818f0ce707bf415191c2895d802e3ce731f822b406bc6"),
    ("structure", "3R0-x-rect-2-2", "tsv"): (0, "e1327df018d50fca29c34a0df02c044e16d8304a9ad15568bb15635c879f50aa"),
    ("props", "3R0", "text"): (0, "ae68ff8396c868a08180643aab4e523b3f189d07d2c0de690bdae5c2e9a89f7e"),
    ("props", "3R0", "tsv"): (0, "afa2e1d6fd919bd4cf9c6c89a8bb3b729bc6389823256f9d476fd9d83975dbaf"),
    ("props", "NC5R-x-chain-2", "text"): (0, "0dc5d3402fff94b84b5b2214cd02725a198aa3b28119eb6529da235593b32cce"),
    ("props", "NC5R-x-chain-2", "tsv"): (0, "ad851cef906830dbd988ccb8801f14b12142fcefb25e29bc1a7aedbaa0b8b2f0"),
    ("props", "chain-2-2-2", "text"): (0, "9c78aa550602a3bd36152a818192ebcafce99abfb7c9124f50b043dde9791a92"),
    ("props", "chain-2-2-2", "tsv"): (0, "6c7d2a77bbb1fef56c325ee137c2e0bafdc25e824e9055083ccfc813511b1fe2"),
    ("props", "rect-2-3", "text"): (0, "a69ae893da2e0a2dfe8a928ab055074ae0ee8ddc9bf7e56b94550fd543905e10"),
    ("props", "rect-2-3", "tsv"): (0, "1eebf317460fd860954a75327852189c004509d1e5392b75e8c7e817c303eb5a"),
    ("props", "3R0-x-rect-2-2", "text"): (0, "3b121a441d090d12a88c08f9407da3ee2158fb09bc093538414713d924e2503a"),
    ("props", "3R0-x-rect-2-2", "tsv"): (0, "c0806fe80841ff1a0b3da8f7a67e7c59916ea0a53eef744a8a682e77c7e92552"),
    ("ybe", "3R0", "text"): (1, "ee7ef33ebab2efc153838db569da16f4c1f5a6efdda346c5eaadc926746f486a"),
    ("ybe", "3R0", "tsv"): (1, "b24a958269ce9265d834e5224ed54444ffcc39bd799533ec619948b6e73c4103"),
    ("ybe", "NC5R-x-chain-2", "text"): (1, "d6c71d25f61af566d991bcc4b6449c6c02f99c367984b14f363cb261f815effe"),
    ("ybe", "NC5R-x-chain-2", "tsv"): (1, "956c0e2fc9c5b210eab9e25ebf338f98c4f3ff8070908f916dc622025dcede51"),
    ("ybe", "chain-2-2-2", "text"): (1, "90743dc275674e06eb429c15ffb48087b476a92a4afc1031645bc04ca7fcfdb7"),
    ("ybe", "chain-2-2-2", "tsv"): (1, "b24a958269ce9265d834e5224ed54444ffcc39bd799533ec619948b6e73c4103"),
    ("ybe", "rect-2-3", "text"): (0, "8ebed91da53f47f86ed200b92c6ff22a8c97b3f36eed9bbe6cb839f08dfddc6d"),
    ("ybe", "rect-2-3", "tsv"): (0, "d6a1bb5c023ce3386c5525501bcaac9f387df29c5c69b60dd1a0e6deace7bc06"),
    ("ybe", "3R0-x-rect-2-2", "text"): (1, "b40c3ea78226e20ffe9db960d0bcb3384d113803ee2eeceda4d51a673e7d08e1"),
    ("ybe", "3R0-x-rect-2-2", "tsv"): (1, "466723d51b8a59eaf70ed80cdb709092d9cef5a14e6a77f6b158973f14069ffc"),
}

# format -> (exit code, sha256 of stdout) of `theorems --max-n 4`
BATTERY = {
    "text": (0, "8f3fa9b543b1cf385559b305286e681e94214aa1b1d83442670a0f3ef81bee8e"),
    "tsv": (0, "17e9a89351c686d1a2e1cdf65c8087e666bf4485708bf09441431a643525f358"),
}

# format -> (exit code, sha256 of stdout) of `theorems --max-n 3` with a
# power_class that calls every map idempotent and not cubic: two entries fail,
# and the text lists up to three witnesses of each with their tables
FAILING_BATTERY = {
    "text": (1, "e73a9186f423ab3edb1fef4d8053162a054dedcf07d3c504e429fb825fad62cf"),
    "tsv": (1, "f3c67108db23a8a3aa7e9965ff915dc83e020be41596e522e2c8beb8f93cc96f"),
}


def _digest(capsys, argv):
    code = cli.run(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("verb, name, fmt", sorted(REPORTS))
def test_report_bytes(capsys, tmp_path, verb, name, fmt):
    path = tmp_path / f"{name}.skl"
    core.save(ALGEBRAS[name]().pair, path)
    assert _digest(capsys, [verb, str(path), "--format", fmt]) == REPORTS[verb, name, fmt]


@pytest.mark.parametrize("fmt", sorted(BATTERY))
def test_battery_bytes(capsys, fmt):
    assert _digest(capsys, ["theorems", "--max-n", "4", "--format", fmt]) == BATTERY[fmt]


@pytest.mark.parametrize("fmt", sorted(FAILING_BATTERY))
def test_failing_battery_bytes(monkeypatch, capsys, fmt):
    monkeypatch.setattr(ybe, "power_class", lambda m: ybe.PowerClass(involutive=False, idempotent=True, cubic=False))
    assert _digest(capsys, ["theorems", "--max-n", "3", "--format", fmt]) == FAILING_BATTERY[fmt]
