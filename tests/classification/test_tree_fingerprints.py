"""Fitted tree learners pinned to sha256 fingerprints.

Each case fits one learner on one small input and hashes what the fit
decided:

* classification trees: the rendered tree, every numeric threshold as
  ``float.hex`` and ``predict_proba(test).tobytes()``;
* the regression tree: its thresholds and ``predict(test).tobytes()``;
* MDLP: the cut points of every numeric column.

The digests were recorded from the per-boundary scalar scans that the
batched split search (:mod:`repro.classification.splits`) replaced.  A
search that picks another boundary, breaks a tie another way or rounds
a score differently changes a digest.

The inputs are small versions of the E6, E8, E12 and E20 workloads,
plus tables with missing cells and with 10 classes.  Print the current
digests with ``PYTHONPATH=src python tests/classification/test_tree_fingerprints.py``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.classification import C45, CART, SLIQ, render_tree
from repro.classification.tree_model import NumericSplit
from repro.core.table import Table, categorical, numeric
from repro.datasets import agrawal, friedman1, gaussian_blobs
from repro.preprocessing import MDLP, train_test_split
from repro.regression import RegressionTree


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _with_missing(table: Table, target: str, rate: float, seed: int) -> Table:
    """``table`` with about ``rate`` of every feature column's cells unknown."""
    rng = np.random.default_rng(seed)
    out = table
    for attr in table.attributes:
        if attr.name == target:
            continue
        col = table.column(attr.name).copy()
        hole = rng.random(col.size) < rate
        col[hole] = np.nan if attr.is_numeric else -1
        out = out.replace_column(attr.name, attr, col)
    return out


@lru_cache(maxsize=None)
def _e6(function: int):
    train = agrawal(400, function=function, noise=0.05,
                    random_state=100 + function)
    test = agrawal(200, function=function, noise=0.0,
                   random_state=200 + function)
    return train, test


@lru_cache(maxsize=None)
def _e8():
    train = agrawal(500, function=5, noise=0.15, random_state=8)
    test = agrawal(200, function=5, noise=0.0, random_state=9)
    return train, test


@lru_cache(maxsize=None)
def _missing():
    train, test = _e6(2)
    return (_with_missing(train, "group", 0.1, seed=1),
            _with_missing(test, "group", 0.1, seed=2))


@lru_cache(maxsize=None)
def _ten_classes():
    """10 blob classes; coordinates rounded to 0.5 so values tie often,
    plus a 12-valued categorical column (past the exhaustive limit)."""
    X, y = gaussian_blobs(500, centers=10, n_features=3, cluster_std=2.5,
                          random_state=5)
    X = np.round(X * 2.0) / 2.0
    rng = np.random.default_rng(7)
    colour = (np.floor(X[:, 0]).astype(int) + rng.integers(0, 3, len(y))) % 12
    attrs = [numeric("x0"), numeric("x1"), numeric("x2"),
             categorical("colour", [f"c{i}" for i in range(12)]),
             categorical("label", [f"k{i}" for i in range(10)])]
    rows = [(*map(float, X[i]), f"c{colour[i]}", f"k{y[i]}")
            for i in range(len(y))]
    table = Table.from_rows(rows, attrs)
    return train_test_split(table, 0.3, stratify="label", random_state=0)


@lru_cache(maxsize=None)
def _ten_classes_missing():
    train, test = _ten_classes()
    return (_with_missing(train, "label", 0.15, seed=3),
            _with_missing(test, "label", 0.15, seed=4))


@lru_cache(maxsize=None)
def _e20(missing: bool):
    table = friedman1(500, noise_sd=1.0, random_state=20)
    # Round x1 so the numeric scan meets ties, and add a categorical
    # column for the target-mean ordering.
    x1 = np.round(table.column("x1") * 20.0) / 20.0
    table = table.replace_column("x1", table.attribute("x1"), x1)
    band = np.floor(table.column("x2") * 7.0).astype(np.int64)
    table = table.replace_column(
        "x2", categorical("x2", [f"b{i}" for i in range(7)]), band
    )
    if missing:
        table = _with_missing(table, "y", 0.1, seed=5)
    return train_test_split(table, 0.3, random_state=0)


DATA = {
    "e6_f1": lambda: _e6(1),
    "e6_f2": lambda: _e6(2),
    "e6_f5": lambda: _e6(5),
    "e6_f7": lambda: _e6(7),
    "e8": _e8,
    "missing": _missing,
    "ten_classes": _ten_classes,
    "ten_classes_missing": _ten_classes_missing,
}

TARGET = {"ten_classes": "label", "ten_classes_missing": "label"}

LEARNERS = {
    "c45_pruned": lambda: C45(prune=True),
    "c45_unpruned": lambda: C45(prune=False),
    "cart_gini": lambda: CART(min_samples_leaf=5),
    "cart_entropy": lambda: CART(criterion="entropy", min_samples_leaf=2),
    "cart_ccp": lambda: CART(ccp_alpha=0.005),
    "sliq": lambda: SLIQ(min_samples_leaf=5),
    "sliq_pruned": lambda: SLIQ(min_samples_leaf=2, prune=True),
}

#: SLIQ rejects missing values
_COMPLETE = ("e6_f1", "e6_f2", "e6_f5", "e6_f7", "e8", "ten_classes")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _tree_digest(learner: str, data: str) -> str:
    train, test = DATA[data]()
    target = TARGET.get(data, "group")
    model = LEARNERS[learner]().fit(train, target)
    h = hashlib.sha256()
    h.update(render_tree(model.tree_, model.target_).encode())
    for node in model.tree_.iter_nodes():
        if isinstance(node, NumericSplit):
            h.update(node.threshold.hex().encode())
    h.update(model.predict_proba(test).tobytes())
    return h.hexdigest()


def _regression_thresholds(node, out):
    if hasattr(node, "left"):
        if node.threshold is not None:
            out.append(float(node.threshold).hex())
        else:
            out.append(repr(sorted(node.left_codes)))
        _regression_thresholds(node.left, out)
        _regression_thresholds(node.right, out)
    return out


def _regression_digest(case: str) -> str:
    missing, kwargs = {
        "depth5": (False, dict(max_depth=5, min_samples_leaf=5)),
        "full": (False, dict(min_samples_leaf=1)),
        "missing_depth8": (True, dict(max_depth=8, min_samples_leaf=3)),
    }[case]
    train, test = _e20(missing)
    model = RegressionTree(**kwargs).fit(train, "y")
    h = hashlib.sha256()
    h.update(" ".join(_regression_thresholds(model.tree_, [])).encode())
    h.update(model.predict(test).tobytes())
    return h.hexdigest()


def _mdlp_digest(case: str) -> str:
    table = {
        "e12_f8": lambda: agrawal(800, function=8, noise=0.05,
                                  random_state=20),
        "e12_f2": lambda: agrawal(800, function=2, noise=0.05,
                                  random_state=14),
        "ten_classes": lambda: _ten_classes()[0],
    }[case]()
    target = "label" if case == "ten_classes" else "group"
    y = table.class_codes(target)
    h = hashlib.sha256()
    for attr in table.attributes:
        if attr.is_numeric:
            cuts = MDLP().fit(table.column(attr.name), y).cut_points_
            h.update(attr.name.encode())
            h.update(np.asarray(cuts, dtype=np.float64).tobytes())
    return h.hexdigest()


def _cases():
    for data in DATA:
        for learner in LEARNERS:
            if learner.startswith("sliq") and data not in _COMPLETE:
                continue
            yield f"{learner}-{data}", lambda l=learner, d=data: _tree_digest(l, d)
    for case in ("depth5", "full", "missing_depth8"):
        yield f"regression-{case}", lambda c=case: _regression_digest(c)
    for case in ("e12_f8", "e12_f2", "ten_classes"):
        yield f"mdlp-{case}", lambda c=case: _mdlp_digest(c)


CASES = dict(_cases())

FINGERPRINTS = {
    'c45_pruned-e6_f1': '017686c73c4913656108f205c07343041f24054886ba2d36ca45c27e74950162',
    'c45_pruned-e6_f2': '4704ab8401c7d576a1a6c8765e8cdebbeac11f0027d9ff446e0104d34092af48',
    'c45_pruned-e6_f5': '57b5c805dd68bf015cb4a1d0698a51f4da2d5ffa16456872c26803a11ed7a1cc',
    'c45_pruned-e6_f7': '9a83088b4a6db08ae89714057b5d4ccaee2b7fc7e78cf6e78024a71d5757a920',
    'c45_pruned-e8': 'ed34bd40fb99892a7ba4fd41268095cfd7c9e21556473a0d4090de02aea2d25d',
    'c45_pruned-missing': '29594dc04b27de5c4eac78a367006628523ba92ce4085bf69ff36e7d43aa38fe',
    'c45_pruned-ten_classes': 'c65d0bd8b99c70c9089fabbd6bd6d2a0ef581fb1bd08547c44682a7a2a0a21a6',
    'c45_pruned-ten_classes_missing': 'eb1436c8d4a07b38bc44b8a618ebc803e9b09f5c726384bb86f5b80237d4c0de',
    'c45_unpruned-e6_f1': '0adbca78ce73575ef9cae6789636c270e3649cd6568ce856e96dfba65eb486dd',
    'c45_unpruned-e6_f2': '93d0d70834d2416d201f3372d5e8a0f75d5bb2b7140eddc9612f263e674559be',
    'c45_unpruned-e6_f5': 'f78382e2f3cb40e717e59e2c3fdebb816af066f0d9e2dd4a002c5bf293e5502e',
    'c45_unpruned-e6_f7': '1a27ecc490b6b4e7eae615de2cfb2e2d6d4f6740f8438b4efef2efaafb2a067e',
    'c45_unpruned-e8': 'f9409f31142d7daddfd317c19fa8722961bb73cf73277e006b51ddf8b4ee73b1',
    'c45_unpruned-missing': '8cb6beaff04bbbcf30245d976fc34554c8336ac584ca8842beaf635f6b7340fc',
    'c45_unpruned-ten_classes': '47b997d6895cbf434e6cd8ca14d1402c00a808d3e163db956e7b454f451d80ef',
    'c45_unpruned-ten_classes_missing': 'ccda9b88e2e23a31ddd4aac424a8275a3357284a50087fb321d3484853250fc9',
    'cart_ccp-e6_f1': '6283c3bfa18dd60a0c451199134c24016717fdb204e7534dc712d377a625161a',
    'cart_ccp-e6_f2': 'bc882fc3f2f965d6f7c77db520265b8cb2c1ea22f15cc739b0f6af57e1e158df',
    'cart_ccp-e6_f5': '670f936980a217d2b9b325836b8c65f881c8104e89ca6f592e9a155002700c17',
    'cart_ccp-e6_f7': '988ed529988af4121a64c1f96863d9442fb034e7794a539190a6cebd7ec772ee',
    'cart_ccp-e8': '5497aec016c0eb5031501082e48440a36152df5ac478ad081fb5e4605b1b48d7',
    'cart_ccp-missing': '503706ba1bac70b1a4da6539093e0482caf97f1a59953ca03af920fba9cc7f2a',
    'cart_ccp-ten_classes': 'af693c7a499a5b02f1f81c47a03f34fe0bd41a9b1195ede5f7b0b372447b30ee',
    'cart_ccp-ten_classes_missing': 'b17b00984f937a8ff37716fc2b0e937f1bc00401d0de7e114ccd1cb579e6d1a5',
    'cart_entropy-e6_f1': '80e97510d5e4186329f76cc9c0cff2505dbbd63205a3830bdf8fc248bf4bb263',
    'cart_entropy-e6_f2': '367a36f500f1a2e81a9393720925b55e27e3592f610b7e6368a859c6f05477f9',
    'cart_entropy-e6_f5': '227e4c6683bf8ebcdb543cf67bd59ecd2a60e147c77659965fccb399f30fc4ff',
    'cart_entropy-e6_f7': 'ae0fd471e2b7737f1058e2018312db05c3282353ab244dd6a18db766121712a0',
    'cart_entropy-e8': '21c2b12743aa7ddf8bf3c9c0a7810b195f354c3b5c339eac28472a214bbb1b6a',
    'cart_entropy-missing': 'bfc5ec8a0f4e07efa5dfa26b0815f50b9142cc9d466061704d6314d20ea65488',
    'cart_entropy-ten_classes': '69a830917ccad793e1aae9b1a506a750c0a9d875b40650bfa62a65a045bb8889',
    'cart_entropy-ten_classes_missing': '4dc920f0666b505946421982c974cd86b59468318221f5b1657d45fe6f3987b8',
    'cart_gini-e6_f1': 'bc4ccace4155dcd7665c0830d1d5b236b89dbbe457e568d92c42cbb6bdd90965',
    'cart_gini-e6_f2': '32acb6acc8d0c79c8c78c909da8788f8b963f78e23265a834a9764141caa5650',
    'cart_gini-e6_f5': '0e1281b2e5b991bbe6f9204fbf576ed0fa49ae6bf1ab9f787fc4b868b72ead2d',
    'cart_gini-e6_f7': '4d29f0abaa6f1adf2386a9a312fcdacae70131d7a08ec355bfafb1a3fcc61ed8',
    'cart_gini-e8': 'e0a9a1014d9322397e0f29f6aca2666df1fd73942bc6be3e7f01689d43dd5b7d',
    'cart_gini-missing': 'fe8bd95bcbe2d35c3954e30e1009538597526ef3186e80b9763442ba70a83d8d',
    'cart_gini-ten_classes': '5112bc2ce24ca52b34b6e4bbe84efdc609f9317d315ef96a6ee299247d6ac507',
    'cart_gini-ten_classes_missing': '97115532339868c0beecd02801d9d278e7188dd23b3d4a75d45f13948e8ab547',
    'mdlp-e12_f2': '82441b9cd9b61d46158274b24d0034a289801a8e9c5693f062c10af984dd8272',
    'mdlp-e12_f8': '2d37dfcc197cb99feb9ea06b78b5552133a4e30b67b19726cea5f0dd5353638e',
    'mdlp-ten_classes': '76294375dbf23d3ba6c5c90921785e8c50f7413810e7379647e10b521e49a7f1',
    'regression-depth5': '379d83368d98ba7ee8cb56581f6173969dd077d1ea03ebf8322834daf84a9895',
    'regression-full': '918370b2d73f1ba257986d6d954f66ef6ae90b331209a46285560a5f21be6c79',
    'regression-missing_depth8': 'a447a3ba70194f32ff1cb3b2cfaba8b16e287b320d337068d7eb1d667723c4aa',
    'sliq-e6_f1': 'f4780ce343c8fbc59017a7c9ed8f2f81a1ff1f288e28924e3c6f0ab212caa436',
    'sliq-e6_f2': 'cd401ffeb8366ef13428371cc573c317c7c53fcb112d02a59065ba64783ebe00',
    'sliq-e6_f5': 'f4add4d6893ca8a6816cc42948f1be9da03ba9c5717afcf382fa0bc2bcacf802',
    'sliq-e6_f7': '5222b68d27f40dae3d769b66b633cd87ff8942ca2e0e49e5bb78fd0ca7a0c1af',
    'sliq-e8': 'dff354bf2adf0f18556e0796cfab48c9a70090b26d898a3084d8f8810553d56d',
    'sliq-ten_classes': '5112bc2ce24ca52b34b6e4bbe84efdc609f9317d315ef96a6ee299247d6ac507',
    'sliq_pruned-e6_f1': 'a95f17805994d369629334f6d11aca2506560389d1a3baff8a47c79acef64130',
    'sliq_pruned-e6_f2': '2c02fdffa4c0dd371ef36c6f0f7927ecc495d9c0fae000f8533f969dafc42323',
    'sliq_pruned-e6_f5': '83eaad0a6498935b4e9c0feb150214e07c0fe26272b62df5e0cd6a9aea5b0cf3',
    'sliq_pruned-e6_f7': '38f10a9b4c5ec167c719ca2b9d43daf9da56db61fec192b668d8ce65112383f1',
    'sliq_pruned-e8': '3c93142ce185db71633c4b5273193ce615d72045462f492db98c56ab7a44fbd3',
    'sliq_pruned-ten_classes': '0748ddb96eef890b7d910c11b1d8766e49baab76bdfa0e7daef85b5d69bb3a41',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fit_matches_recorded_fingerprint(case):
    assert CASES[case]() == FINGERPRINTS[case]


def test_every_case_has_a_fingerprint():
    assert set(FINGERPRINTS) == set(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {CASES[case]()!r},")
