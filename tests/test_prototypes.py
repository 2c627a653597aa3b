"""Prototype banks, momentum update schedule, pseudo-labeling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairseg.errors import (
    ConfigError,
    DimensionError,
    StateError,
    UnavailableError,
)
from fairseg import prototypes
from fairseg.numerics import Rng
from fairseg.prototypes import (
    ClusterConfig,
    FeatureBank,
    PrototypeBank,
    freeze_previous,
    pseudo_label_map,
    update_prototypes,
)


def make_protos(dim, ids):
    protos = PrototypeBank(dim)
    protos.register(ids)
    return protos


def set_proto(protos, cid, vector, frozen=False):
    entry = protos.entries[cid]
    entry.vector = np.asarray(vector, dtype=np.float64)
    entry.initialized = True
    entry.frozen = frozen


class TestFeatureBank:
    def test_fifo_eviction(self):
        bank = FeatureBank(feature_dim=1, capacity=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            bank.deposit_many(5, [[v]])
        held = [float(f[0]) for f in bank.queues[5]]
        assert held == [2.0, 3.0, 4.0]
        assert len(bank.queues[5]) == 3

    def test_unseen_class_creates_queue(self):
        bank = FeatureBank(feature_dim=2, capacity=4)
        assert 9 not in bank.queues
        bank.deposit_many(9, [[1.5, -0.5]])
        assert len(bank.queues[9]) == 1

    def test_mean_matches_brute_force(self):
        bank = FeatureBank(feature_dim=3, capacity=5)
        rng = Rng(40)
        feats = [rng.normals(3) for _ in range(8)]
        bank.deposit_many(2, feats)
        expect = np.mean(np.stack(feats[-5:]), axis=0)
        np.testing.assert_allclose(bank.mean(2), expect, atol=1e-15)

    def test_deposit_many_matches_row_by_row(self):
        rng = Rng(41)
        rows = rng.normals(11 * 2).reshape(11, 2)
        chunked = FeatureBank(feature_dim=2, capacity=4)
        single = FeatureBank(feature_dim=2, capacity=4)
        for lo, hi in ((0, 3), (3, 3), (3, 9), (9, 11)):
            chunked.deposit_many(1, rows[lo:hi])
        for row in rows:
            single.deposit_many(1, row[None])
        held = chunked.queues[1].tobytes()
        assert held == rows[-4:].tobytes() == single.queues[1].tobytes()
        rows[:] = 0.0
        assert chunked.queues[1].tobytes() == held

    def test_empty_mean_is_none(self):
        bank = FeatureBank(feature_dim=2, capacity=2)
        assert bank.mean(3) is None

    def test_dimension_mismatch(self):
        bank = FeatureBank(feature_dim=2, capacity=2)
        with pytest.raises(DimensionError):
            bank.deposit_many(1, np.ones((1, 3)))

    def test_reset_clears_everything(self):
        bank = FeatureBank(feature_dim=1, capacity=2)
        bank.deposit_many(1, np.ones((1, 1)))
        bank.reset()
        assert 1 not in bank.queues and bank.mean(1) is None

    def test_bad_capacity(self):
        with pytest.raises(ConfigError):
            FeatureBank(feature_dim=1, capacity=0)

    def test_deposit_copies_input(self):
        bank = FeatureBank(feature_dim=2, capacity=2)
        v = np.array([1.0, 2.0])
        bank.deposit_many(1, v[None])
        v[0] = 99.0
        assert bank.mean(1)[0] == 1.0


class TestUpdateSchedule:
    def cfg(self, period=4, momentum=0.99):
        return ClusterConfig(update_period=period, momentum=momentum).validate()

    def test_first_update_sets_mean(self):
        protos = make_protos(2, [0, 1])
        bank = FeatureBank(2, 10)
        bank.deposit_many(1, [[1.0, 1.0]])
        bank.deposit_many(1, [[3.0, 3.0]])
        update_prototypes(protos, bank, self.cfg(period=4), iteration=4)
        assert protos.is_initialized(1)
        np.testing.assert_allclose(protos.entries[1].vector, [2.0, 2.0], atol=1e-15)

    def test_momentum_step(self):
        protos = make_protos(2, [1])
        set_proto(protos, 1, [2.0, 2.0])
        bank = FeatureBank(2, 10)
        bank.deposit_many(1, [[4.0, 4.0]])
        update_prototypes(protos, bank, self.cfg(period=4), iteration=8)
        np.testing.assert_allclose(protos.entries[1].vector, [2.02, 2.02], atol=1e-12)

    def test_off_schedule_iterations_are_noops(self):
        protos = make_protos(1, [1])
        bank = FeatureBank(1, 4)
        bank.deposit_many(1, [[5.0]])
        for i in (1, 2, 3, 5, 6, 7, 9):
            update_prototypes(protos, bank, self.cfg(period=4), iteration=i)
        assert not protos.is_initialized(1)

    def test_frozen_prototype_untouched(self):
        protos = make_protos(1, [1])
        set_proto(protos, 1, [7.0], frozen=True)
        bank = FeatureBank(1, 4)
        bank.deposit_many(1, [[0.0]])
        update_prototypes(protos, bank, self.cfg(period=2), iteration=2)
        assert protos.entries[1].vector[0] == 7.0

    def test_empty_queue_skipped(self):
        protos = make_protos(1, [1, 2])
        bank = FeatureBank(1, 4)
        bank.deposit_many(1, [[1.0]])
        update_prototypes(protos, bank, self.cfg(period=2), iteration=2)
        assert protos.is_initialized(1)
        assert not protos.is_initialized(2)

    def test_late_arrival_initializes_at_next_update(self):
        protos = make_protos(1, [2])
        bank = FeatureBank(1, 4)
        update_prototypes(protos, bank, self.cfg(period=2), iteration=2)
        bank.deposit_many(2, [[3.0]])
        update_prototypes(protos, bank, self.cfg(period=2), iteration=4)
        assert protos.is_initialized(2)
        assert protos.entries[2].vector[0] == 3.0

    def test_geometric_contraction_to_stationary_mean(self):
        cfg = self.cfg(period=1, momentum=0.9)
        protos = make_protos(2, [1])
        p0 = np.array([10.0, -4.0])
        set_proto(protos, 1, p0)
        m = np.array([1.0, 1.0])
        bank = FeatureBank(2, 4)
        bank.deposit_many(1, m[None])
        gap0 = np.linalg.norm(p0 - m)
        for n in range(1, 30):
            update_prototypes(protos, bank, cfg, iteration=n)
            gap = np.linalg.norm(protos.entries[1].vector - m)
            assert gap <= (0.9**n) * gap0 + 1e-12


def oracle_schedule(dim, cfg, events):
    """Independent replay of the momentum-update schedule.

    ``events`` is a list of ("deposit", cid, vector) and ("update", i)
    records.  Bank queues and prototype states are simulated with plain
    lists and dicts, no shared code with the implementation under test.
    """
    queues = {}
    vectors = {}
    initialized = set()
    frozen = set()
    for ev in events:
        if ev[0] == "deposit":
            _, cid, vec = ev
            q = queues.setdefault(cid, [])
            q.append(np.array(vec, dtype=np.float64))
            if len(q) > cfg.bank_capacity:
                q.pop(0)
        elif ev[0] == "freeze":
            frozen.add(ev[1])
        else:
            _, i = ev
            if i < cfg.update_period or i % cfg.update_period != 0:
                continue
            for cid in sorted(vectors) + sorted(
                set(queues) - set(vectors)
            ):
                if cid in frozen or not queues.get(cid):
                    continue
                mean = np.mean(np.stack(queues[cid]), axis=0)
                if cid not in initialized:
                    vectors[cid] = mean
                    initialized.add(cid)
                else:
                    vectors[cid] = (
                        cfg.momentum * vectors[cid]
                        + (1.0 - cfg.momentum) * mean
                    )
    return vectors, initialized


class TestAlgorithmOracle:
    def test_randomized_schedule_matches_oracle(self):
        dim = 3
        cfg = ClusterConfig(
            margin=10.0,
            momentum=0.97,
            update_period=5,
            bank_capacity=4,
            deposit_per_class=8,
        ).validate()
        rng = Rng(20240807)
        protos = make_protos(dim, [0, 1, 2, 3])
        set_proto(protos, 3, rng.normals(dim), frozen=True)
        bank = FeatureBank(dim, cfg.bank_capacity)
        events = [("freeze", 3)]
        for i in range(1, 61):
            for _ in range(rng.randint(3)):
                cid = rng.randint(4)
                vec = rng.normals(dim)
                bank.deposit_many(cid, vec[None])
                events.append(("deposit", cid, vec.copy()))
            update_prototypes(protos, bank, cfg, iteration=i)
            events.append(("update", i))
            expect_vecs, expect_init = oracle_schedule(dim, cfg, events)
            for cid in (0, 1, 2):
                assert protos.is_initialized(cid) == (cid in expect_init)
                if cid in expect_init:
                    np.testing.assert_allclose(
                        protos.entries[cid].vector,
                        expect_vecs[cid],
                        atol=1e-12,
                        rtol=0,
                    )
            # frozen class 3 never moves no matter the schedule
            assert protos.entries[3].frozen


class TestPseudoLabel:
    def test_exact_match(self):
        protos = make_protos(2, [0, 3])
        set_proto(protos, 0, [5.0, 5.0])
        set_proto(protos, 3, [1.0, -1.0])
        assert pseudo_label_map(protos, np.array([[1.0, -1.0]]))[0] == 3

    def test_tie_prefers_smallest_id(self):
        protos = make_protos(1, [0, 2])
        set_proto(protos, 0, [1.0])
        set_proto(protos, 2, [3.0])
        assert pseudo_label_map(protos, np.array([[2.0]]))[0] == 0

    def test_unavailable_without_initialized(self):
        protos = make_protos(2, [0, 1])
        with pytest.raises(UnavailableError):
            pseudo_label_map(protos, np.zeros((1, 2)))

    def test_uninitialized_entries_excluded(self):
        protos = make_protos(1, [0, 1, 2])
        set_proto(protos, 2, [0.0])
        assert pseudo_label_map(protos, np.array([[100.0]]))[0] == 2

    def test_matches_brute_force_scan(self):
        rng = Rng(606)
        dim = 5
        protos = make_protos(dim, range(6))
        centers = {cid: rng.normals(dim) for cid in range(6)}
        for cid, vec in centers.items():
            set_proto(protos, cid, vec)
        for _ in range(500):
            f = rng.normals(dim) * 2.0
            best, best_d = None, None
            for cid in range(6):
                d = float(np.linalg.norm(f - centers[cid]))
                if best_d is None or d < best_d:
                    best, best_d = cid, d
            assert pseudo_label_map(protos, f[None])[0] == best

    def test_map_agrees_with_pairwise_scan(self):
        rng = Rng(607)
        dim = 4
        protos = make_protos(dim, [0, 2, 5])
        for cid in (0, 2, 5):
            set_proto(protos, cid, rng.normals(dim))
        feats = rng.normals(50 * dim).reshape(50, dim)
        # engineered exact ties: feature equidistant between ids 0 and 5
        feats[7] = 0.5 * (protos.entries[0].vector + protos.entries[5].vector)
        out = pseudo_label_map(protos, feats)
        for i in range(50):
            d2 = {c: float(np.sum((feats[i] - protos.entries[c].vector) ** 2))
                  for c in (0, 2, 5)}
            best = min(d2.values())
            assert out[i] == min(c for c, d in d2.items() if d == best)

    @pytest.mark.parametrize("chunk", [1, 7, 50, 2048])
    def test_chunks_agree_with_one_pass(self, chunk, monkeypatch):
        monkeypatch.setattr(prototypes, "LABEL_CHUNK", chunk)
        rng = Rng(608)
        dim = 4
        protos = make_protos(dim, [0, 2, 5])
        set_proto(protos, 0, [1.0, 0.0, 0.0, 0.0])
        set_proto(protos, 2, rng.normals(dim))
        set_proto(protos, 5, [-1.0, 0.0, 0.0, 0.0])
        feats = rng.normals(101 * dim).reshape(101, dim)
        feats[::10, 0] = 0.0  # exact ties between ids 0 and 5
        d2 = np.stack([np.sum((feats - protos.entries[c].vector) ** 2, axis=1)
                       for c in (0, 2, 5)], axis=1)
        want = np.array([0, 2, 5])[np.argmin(d2, axis=1)]
        assert np.array_equal(pseudo_label_map(protos, feats), want)
        assert set(want[::10]) <= {0, 2} and 0 in want[::10]

    def test_dimension_mismatch(self):
        protos = make_protos(3, [0])
        set_proto(protos, 0, [0.0, 0.0, 0.0])
        with pytest.raises(DimensionError):
            pseudo_label_map(protos, np.zeros((4, 2)))


class TestFreeze:
    def test_freeze_marks_and_is_idempotent(self):
        protos = make_protos(1, [0, 1, 2])
        set_proto(protos, 1, [1.0])
        set_proto(protos, 2, [2.0])
        freeze_previous(protos, {1, 2})
        freeze_previous(protos, {1, 2})
        assert protos.entries[1].frozen and protos.entries[2].frozen
        assert not protos.entries[0].frozen

    def test_freeze_uninitialized_rejected(self):
        protos = make_protos(1, [0, 1])
        with pytest.raises(StateError):
            freeze_previous(protos, {1})

    def test_freeze_unknown_cluster_rejected(self):
        protos = make_protos(1, [0])
        set_proto(protos, 0, [0.0])
        with pytest.raises(StateError):
            freeze_previous(protos, {0})


class TestClusterConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"margin": 0.0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"update_period": 0},
            {"bank_capacity": 0},
            {"deposit_per_class": 0},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs).validate()

    def test_defaults_match_documented_schedule(self):
        cfg = ClusterConfig().validate()
        assert cfg.margin == 10.0
        assert cfg.momentum == 0.99
        assert cfg.update_period == 50
        assert cfg.bank_capacity == 500


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.floats(-5, 5)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_bank_never_exceeds_capacity(deposits, capacity):
    bank = FeatureBank(feature_dim=1, capacity=capacity)
    for cid, v in deposits:
        bank.deposit_many(cid, [[v]])
    for cid in set(c for c, _ in deposits):
        assert len(bank.queues[cid]) <= capacity
        tail = [v for c, v in deposits if c == cid][-capacity:]
        held = [float(f[0]) for f in bank.queues[cid]]
        assert held == tail
