"""Tests for the unified join configuration (``repro.core.spec``):
one frozen spec type shared by every operator family, validated in
exactly one place."""

import dataclasses
import pickle

import pytest

from repro.core.distance_join import IncrementalDistanceJoin
from repro.core.knn_join import KNearestNeighborJoin
from repro.core.reverse import ReverseDistanceJoin, ReverseDistanceSemiJoin
from repro.core.semi_join import IncrementalDistanceSemiJoin
from repro.core.spec import JoinSpec
from repro.shard import ShardRouterJoin, ShardRouterSemiJoin

from tests.conftest import make_points, make_tree


@pytest.fixture(scope="module")
def trees():
    return (
        make_tree(make_points(40, seed=31)),
        make_tree(make_points(50, seed=32)),
    )


SEQUENTIAL_OPERATORS = [
    IncrementalDistanceJoin,
    IncrementalDistanceSemiJoin,
    KNearestNeighborJoin,
    ReverseDistanceJoin,
    ReverseDistanceSemiJoin,
]


class TestSpecBasics:
    def test_frozen(self):
        spec = JoinSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.max_pairs = 5

    def test_evolve_returns_new_spec(self):
        spec = JoinSpec(max_pairs=10)
        changed = spec.evolve(max_pairs=None, node_policy="basic")
        assert spec.max_pairs == 10
        assert changed.max_pairs is None
        assert changed.node_policy == "basic"

    def test_picklable(self):
        spec = JoinSpec(queue="hybrid", queue_dt=3.0, max_pairs=7)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestSingleValidationPoint:
    """Every operator rejects bad knobs through JoinSpec.validate."""

    @pytest.mark.parametrize("operator", SEQUENTIAL_OPERATORS)
    @pytest.mark.parametrize("bad", [
        {"tie_break": "sideways"},
        {"node_policy": "odd"},
        {"queue": "punchcard"},
        {"queue": "hybrid"},  # hybrid requires a positive D_T
        {"queue": "hybrid", "queue_dt": -1.0},
        {"leaf_mode": "indirect"},
        {"min_distance": -1.0},
        {"min_distance": 5.0, "max_distance": 1.0},
        {"max_pairs": 0},
        {"filter_strategy": "outside9"},
        {"dmax_strategy": "galactic"},
        {"dmax_strategy": "local", "filter_strategy": "outside"},
        {"max_pairs": 2.5},  # would seed the estimator with k = 2.5
        {"max_pairs": 3.0},
        {"max_pairs": True},  # isinstance(True, int) holds
    ])
    def test_rejected_everywhere(self, trees, operator, bad):
        with pytest.raises(ValueError):
            operator(*trees, JoinSpec(**bad))

    @pytest.mark.parametrize("operator", SEQUENTIAL_OPERATORS)
    def test_spec_positional_accepted(self, trees, operator):
        join = operator(*trees, JoinSpec(max_pairs=4))
        assert join.spec.max_pairs == 4

    def test_validate_directly(self):
        with pytest.raises(ValueError):
            JoinSpec(queue="hybrid").validate()
        JoinSpec(queue="hybrid", queue_dt=2.0).validate()

    @pytest.mark.parametrize("bound", ["min_distance", "max_distance"])
    def test_nan_bound_is_named(self, trees, bound):
        """NaN fails every comparison; the message must blame the NaN,
        not the other bound or the sign."""
        spec = JoinSpec(**{bound: float("nan")})
        with pytest.raises(ValueError, match=f"^{bound} is NaN"):
            spec.validate()
        with pytest.raises(ValueError, match="NaN"):
            IncrementalDistanceJoin(*trees, spec)


class TestBackCompatKeywords:
    """The operator's spec is the one it runs, as given."""

    def test_reverse_join_forces_descending(self, trees):
        join = ReverseDistanceJoin(*trees, JoinSpec(max_pairs=3))
        assert join.spec.descending
        assert join.descending


class TestSemiJoinDirectionGuard:
    def test_semi_join_rejects_descending(self, trees):
        with pytest.raises(ValueError, match="ReverseDistanceSemiJoin"):
            IncrementalDistanceSemiJoin(*trees, JoinSpec(descending=True))

    def test_reverse_semi_join_is_the_blessed_path(self, trees):
        join = ReverseDistanceSemiJoin(*trees)
        assert join.spec.descending


class TestParallelValidation:
    """The engine validates the spec explicitly instead of silently
    ignoring unsupported knobs."""

    def test_queue_request_rejected(self, trees):
        with pytest.raises(ValueError, match="in-memory queue"):
            ShardRouterJoin(
                *trees, JoinSpec(queue="hybrid", queue_dt=2.0), shards=2,
            )

    def test_descending_rejected(self, trees):
        with pytest.raises(ValueError, match="min-merge"):
            ShardRouterJoin(*trees, JoinSpec(descending=True), shards=2)

    def test_spec_threaded_to_tasks(self, trees):
        engine = ShardRouterJoin(
            *trees, JoinSpec(max_pairs=10, node_policy="basic"), shards=2,
        )
        assert engine.spec.max_pairs == 10
        for task in engine.tasks:
            assert task.spec.node_policy == "basic"

    def test_semi_join_workers_uncapped(self, trees):
        engine = ShardRouterSemiJoin(*trees, JoinSpec(max_pairs=5), shards=2)
        # The parent bound stays; tasks must stream unbounded so the
        # post-merge dedup sees every outer object's best partner.
        assert engine.max_pairs == 5
        for task in engine.tasks:
            assert task.spec.max_pairs is None
