"""Integration tests: whole-session lifecycles across the full stack."""

import numpy as np
import pytest

from repro import (
    DecimalType,
    DeviceOutOfMemory,
    IntType,
    Machine,
    Session,
    SqlError,
)
from repro.device.model import DeviceSpec, GTX_680


class TestDecomposeLifecycle:
    def test_redecompose_frees_device_memory(self):
        session = Session()
        session.create_table("t", {"v": IntType()}, {"v": np.arange(100_000)})
        session.execute("select bwdecompose(v, 32) from t")
        first = session.machine.gpu.pool.allocated
        session.execute("select bwdecompose(v, 12) from t")
        second = session.machine.gpu.pool.allocated
        assert second < first  # old approximation was evicted

    def test_queries_track_latest_decomposition(self):
        session = Session()
        session.create_table("t", {"v": IntType()}, {"v": np.arange(10_000)})
        sql = "select count(*) from t where v < 1000"
        session.execute("select bwdecompose(v, 32) from t")
        exact_time = session.execute(sql).timeline.total_seconds()
        session.execute("select bwdecompose(v, 20) from t")
        lossy = session.execute(sql)
        assert lossy.scalar("count_0") == 1000  # still exact after refinement
        assert lossy.timeline.refine_seconds() > 0  # but refinement now runs
        assert exact_time > 0

    def test_oom_leaves_catalog_consistent(self):
        tiny = DeviceSpec(
            name="tiny", kind="gpu", memory_capacity=40_000,
            seq_bandwidth=GTX_680.seq_bandwidth,
            random_bandwidth=GTX_680.random_bandwidth,
            per_tuple=GTX_680.per_tuple,
        )
        session = Session(Machine(gpu_spec=tiny))
        session.create_table("t", {"v": IntType()}, {"v": np.arange(100_000)})
        with pytest.raises(DeviceOutOfMemory):
            session.execute("select bwdecompose(v, 32) from t")
        # lower resolution still fits and works end to end
        session.bwdecompose("t", "v", residual_bits=16)
        result = session.execute("select count(*) from t where v < 5000")
        assert result.scalar("count_0") == 5000


class TestMultiTableWorkflows:
    @pytest.fixture()
    def session(self):
        s = Session()
        rng = np.random.default_rng(9)
        n = 20_000
        s.create_table(
            "sales",
            {
                "store": IntType(),
                "amount": DecimalType(10, 2),
                "day": IntType(),
            },
            {
                "store": rng.integers(0, 8, n),
                "amount": rng.uniform(1, 500, n).round(2),
                "day": rng.integers(0, 365, n),
            },
        )
        s.create_table(
            "stores",
            {"key": IntType(), "region": IntType()},
            {"key": np.arange(8), "region": [0, 0, 1, 1, 2, 2, 3, 3]},
        )
        for col, bits in (("store", 32), ("amount", 18), ("day", 32)):
            s.bwdecompose("sales", col, bits)
        s.bwdecompose("stores", "region", 32)
        return s

    def test_join_group_aggregate_roundtrip(self, session):
        sql = (
            "select stores.region, sum(amount) as revenue, count(*) as n "
            "from sales join stores on sales.store = stores.key "
            "where day between 100 and 200 "
            "group by stores.region"
        )
        ar = session.execute(sql).sorted_by("stores.region")
        classic = session.execute(sql, mode="classic").sorted_by("stores.region")
        assert np.array_equal(ar.column("revenue"), classic.column("revenue"))
        assert np.array_equal(ar.column("n"), classic.column("n"))
        assert ar.row_count == 4

    def test_repeated_queries_accumulate_nothing(self, session):
        sql = "select count(*) from sales where day < 50"
        first = session.execute(sql)
        for _ in range(5):
            again = session.execute(sql)
            assert again.scalar("count_0") == first.scalar("count_0")
            assert again.timeline.total_seconds() == pytest.approx(
                first.timeline.total_seconds()
            )

    def test_all_modes_and_orders_agree(self, session):
        sql = (
            "select sum(amount) as s from sales "
            "where day between 10 and 300 and amount >= 250.00"
        )
        baseline = session.execute(sql, mode="classic").scalar("s")
        for pushdown in (True, False):
            for order in ("query", "selectivity"):
                got = session.execute(
                    sql, pushdown=pushdown, predicate_order=order
                ).scalar("s")
                assert got == baseline, (pushdown, order)

    def test_drop_and_recreate_table(self, session):
        sql = "select count(*) as n, sum(day) as s from sales where day between 10 and 200"
        for _ in range(3):  # a shape keeps its templates from its second run
            session.execute(sql)
            with session.serve() as server:
                server.submit(_bound(sql, session)).result()
        epoch = session.catalog.epoch
        session.drop("sales")
        assert "sales" not in session.catalog
        with pytest.raises(Exception):
            session.execute("select count(*) from sales")
        # Regression: ``register`` / ``drop`` left the epoch alone, so the
        # new table was answered from the dropped one's cached plans:
        # ``PlanError: column 'day' is not decomposed``.
        session.create_table(
            "sales", {"day": IntType(), "x": IntType()},
            {"day": np.arange(1000) % 365, "x": np.arange(1000)},
        )
        assert session.catalog.epoch == epoch + 2
        want = session.execute(sql, mode="classic")
        with session.serve() as server:
            served = server.submit(_bound(sql, session)).result()
        for result in (session.execute(sql), served):
            assert result.scalar("n") == want.scalar("n")
            assert result.scalar("s") == want.scalar("s")
        session.bwdecompose("sales", "x", 32)
        assert session.execute("select count(*) from sales where x < 5").scalar(
            "count_0"
        ) == 5


class TestDropRedecompose:
    """A dropped table's approximations leave the device with it: created
    again and decomposed again, the table answers as it would in a fresh
    session — before ``drop`` evicted them, ``bwdecompose`` raised
    ``DeviceError: buffer 'T.C' already allocated``."""

    SQL = (
        "select count(*) as n, sum(v) as s from t join q "
        "on t.v within 40 of q.w where v between 100 and 3000"
    )

    @staticmethod
    def load(session, seed, sharded):
        rng = np.random.default_rng(seed)
        session.create_table(
            "t", {"v": IntType(), "g": IntType()},
            {"v": rng.integers(0, 4_000, 2_000), "g": rng.integers(0, 4, 2_000)},
        )
        kwargs = {"partition": False} if sharded else {}
        session.create_table(
            "q", {"w": IntType()}, {"w": rng.integers(0, 4_000, 300)}, **kwargs
        )
        session.bwdecompose("t", "v", residual_bits=3)
        session.bwdecompose("t", "g", residual_bits=0)
        session.bwdecompose("q", "w", residual_bits=2)

    def answers(self, session):
        solo = session.query(_bound(self.SQL, session))
        with session.serve() as server:
            served = server.submit(_bound(self.SQL, session)).result()
        grouped = session.query(_bound(
            "select g, count(*) as n from t where v < 2500 group by g", session
        ))
        return [
            {name: column.tolist() for name, column in result.columns.items()}
            for result in (solo, served, grouped)
        ]

    @staticmethod
    def allocated(session) -> list[int]:
        machines = (
            [shard.machine for shard in session.sharded_catalog.shards]
            if hasattr(session, "sharded_catalog") else [session.machine]
        )
        return [machine.gpu.pool.allocated for machine in machines]

    @pytest.mark.parametrize("sharded", [False, True], ids=["session", "sharded"])
    def test_drop_recreate_redecompose_equals_a_fresh_session(self, sharded):
        from repro.shard import ShardedSession

        make = (lambda: ShardedSession(4)) if sharded else Session
        session = make()
        empty = self.allocated(session)
        self.load(session, 1, sharded)
        self.answers(session)
        for table in ("t", "q"):
            session.drop(table)
            assert table not in session.catalog
        assert self.allocated(session) == empty
        self.load(session, 2, sharded)

        fresh = make()
        self.load(fresh, 2, sharded)
        assert self.allocated(session) == self.allocated(fresh)
        assert self.answers(session) == self.answers(fresh)

    def test_dropping_an_unknown_table_is_refused(self):
        from repro.errors import StorageError
        from repro.shard import ShardedSession

        for session in (Session(), ShardedSession(2)):
            with pytest.raises(StorageError):
                session.drop("nope")


def _bound(sql, session):
    from repro.sql import bind, parse

    return bind(parse(sql), session.catalog)[0]


class TestErrorSurface:
    def test_sql_errors_carry_position_or_message(self):
        session = Session()
        session.create_table("t", {"v": IntType()}, {"v": np.arange(10)})
        with pytest.raises(SqlError):
            session.execute("select v from t where v like 'x%'")

    def test_timeline_isolation_between_queries(self):
        session = Session()
        session.create_table("t", {"v": IntType()}, {"v": np.arange(1000)})
        session.execute("select bwdecompose(v, 32) from t")
        a = session.execute("select count(*) from t where v < 10")
        b = session.execute("select count(*) from t where v < 999")
        assert len(a.timeline.spans) > 0
        assert a.timeline is not b.timeline
