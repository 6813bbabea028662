"""Partitioning schemes: structure, coroutine semantics, corpus round-trip."""

import pytest

from ringbench.arch.common import request_stream
from ringbench.ring import Completion, CompletionStatus, OpKind
from ringbench.tasks import (ComputeStep, CompletionMismatch,
                             Done, Geometry, IoStep, KIND_COMPUTE, KIND_POLL,
                             KIND_POLL_FUSED, NestedStep, ResumeAfterDone,
                             SuspendedOnIo, TaskSpec, generate_corpus,
                             interpret_task, io_request_for, make_coroutine,
                             partition_callback, partition_full, read_corpus,
                             resume, write_corpus)

GEO = Geometry(4096, 1 << 30)

C = lambda cost=1000, op="mix", x=7: ComputeStep(cost, op, x)
R = lambda: IoStep("read", 1, "stride")


def spec(*steps, task_id=1, state=12345):
    return TaskSpec(task_id=task_id, steps=tuple(steps),
                    initial_state=state)


class TestPartitionFull:
    def test_compute_io_compute(self):
        ts = partition_full(spec(C(), R(), C()))
        assert [t.kind for t in ts] == [KIND_COMPUTE, KIND_POLL, KIND_COMPUTE]
        assert ts[0].submit_index == 0          # submission rides tasklet A
        assert ts[1].awaits_index == 0
        assert ts[1].next_index == 2
        assert ts[2].next_index is None

    def test_pure_compute_single_tasklet(self):
        ts = partition_full(spec(C()))
        assert len(ts) == 1 and ts[0].kind == KIND_COMPUTE

    def test_three_io_alternating_counts(self):
        ts = partition_full(spec(C(), R(), C(), R(), C(), R(), C()))
        kinds = [t.kind for t in ts]
        assert kinds.count(KIND_POLL) == 3
        assert kinds.count(KIND_COMPUTE) == 4

    def test_trailing_io_has_no_empty_successor(self):
        ts = partition_full(spec(C(), R()))
        assert [t.kind for t in ts] == [KIND_COMPUTE, KIND_POLL]
        assert ts[-1].next_index is None

    def test_leading_io_gets_submit_only_tasklet(self):
        ts = partition_full(spec(R(), C()))
        assert ts[0].kind == KIND_COMPUTE and ts[0].compute == ()
        assert ts[0].submit_index == 0

    def test_consecutive_ios(self):
        ts = partition_full(spec(R(), R()))
        kinds = [t.kind for t in ts]
        assert kinds == [KIND_COMPUTE, KIND_POLL, KIND_COMPUTE, KIND_POLL]

    def test_nested_rejected(self):
        with pytest.raises(ValueError):
            partition_full(spec(NestedStep(spec(C()))))


class TestPartitionCallback:
    def test_fused_poll_and_successor(self):
        ts = partition_callback(spec(C(), R(), C()))
        assert [t.kind for t in ts] == [KIND_COMPUTE, KIND_POLL_FUSED]
        assert ts[1].awaits_index == 0
        assert ts[1].compute  # successor compute folded in

    def test_pure_compute(self):
        ts = partition_callback(spec(C()))
        assert len(ts) == 1 and ts[0].kind == KIND_COMPUTE

    @pytest.mark.parametrize("seed", range(20))
    def test_count_is_one_plus_io_count(self, seed):
        corpus = generate_corpus(seed, 5)
        for s in corpus:
            n_io = sum(1 for st in s.steps if isinstance(st, IoStep))
            got = len(partition_callback(s))
            assert got == (n_io + 1 if n_io else 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_fusion_removes_materialized_successors(self, seed):
        # full count minus callback count == polls that had a successor tasklet
        for s in generate_corpus(seed + 100, 5):
            full = partition_full(s)
            fused = partition_callback(s)
            with_successor = sum(1 for t in full
                                 if t.kind == KIND_POLL
                                 and t.next_index is not None)
            assert len(full) - len(fused) == with_successor


class TestCoroutine:
    def test_two_step_walk(self):
        frame = make_coroutine(spec(C(), R(), C()), GEO)
        out = resume(frame)
        assert isinstance(out, SuspendedOnIo)
        req = out.request
        req.request_id = 17
        comp = Completion(17, 0, CompletionStatus.OK, req.length, 0)
        out2 = resume(frame, comp)
        assert isinstance(out2, Done)

    def test_pure_compute_done_on_first_resume(self):
        frame = make_coroutine(spec(C(), C()), GEO)
        out = resume(frame)
        assert isinstance(out, Done)
        assert out.final_state == interpret_task(spec(C(), C()), GEO)

    def test_resume_after_done_raises(self):
        frame = make_coroutine(spec(C()), GEO)
        resume(frame)
        with pytest.raises(ResumeAfterDone):
            resume(frame)

    def test_completion_mismatch(self):
        frame = make_coroutine(spec(R(), C()), GEO)
        out = resume(frame)
        out.request.request_id = 5
        wrong = Completion(6, 0, CompletionStatus.OK, 4096, 0)
        with pytest.raises(CompletionMismatch):
            resume(frame, wrong)

    @pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
    def test_resume_without_completion_raises_and_changes_nothing(
            self, nested):
        # a poll miss never resumes a frame: MissStreak charges it
        task = spec(C(), R(), C())
        if nested:
            task = spec(C(), NestedStep(spec(R(), C(), task_id=2)), task_id=3)
        frame = make_coroutine(task, GEO)
        first = resume(frame)
        frames = [frame] + ([frame.inner] if nested else [])
        before = [{k: getattr(f, k) for k in f.__slots__} for f in frames]
        with pytest.raises(CompletionMismatch):
            resume(frame)
        assert [{k: getattr(f, k) for k in f.__slots__}
                for f in frames] == before
        first.request.request_id = 1
        done = resume(frame, Completion(1, 0, CompletionStatus.OK,
                                        first.request.length, 0))
        assert done.final_state == interpret_task(task, GEO)

    def test_matches_oracle_when_driven_to_completion(self):
        for s in generate_corpus(9, 20):
            frame = make_coroutine(s, GEO)
            rid = 0
            out = resume(frame)
            while isinstance(out, SuspendedOnIo):
                out.request.request_id = rid
                comp = Completion(rid, 0, CompletionStatus.OK,
                                  out.request.length, 0)
                rid += 1
                out = resume(frame, comp)
            assert out.final_state == interpret_task(s, GEO)

    def test_nested_frame_bytes_accounting(self):
        inner = spec(C(), C(), task_id=2)
        outer = spec(C(), NestedStep(inner), C(), task_id=3)
        inner_frame = make_coroutine(inner, GEO)
        outer_frame = make_coroutine(outer, GEO)
        resume(outer_frame)
        assert outer_frame.frame_bytes >= inner_frame.frame_bytes

    def test_nested_execution_matches_oracle(self):
        inner = spec(C(5, "add", 3), R(), C(7, "xor", 9), task_id=2)
        outer = spec(C(), NestedStep(inner), C(), task_id=3)
        frame = make_coroutine(outer, GEO)
        out = resume(frame)
        assert isinstance(out, SuspendedOnIo)  # suspended inside the nest
        out.request.request_id = 1
        comp = Completion(1, 0, CompletionStatus.OK, out.request.length, 0)
        out = resume(frame, comp)
        assert isinstance(out, Done)
        assert out.final_state == interpret_task(outer, GEO)

    def test_upcoming_compute_cost(self):
        frame = make_coroutine(spec(C(100), C(50), R(), C(30)), GEO)
        assert frame.upcoming_compute_cost() == 150
        resume(frame)
        assert frame.upcoming_compute_cost() == 30


def assert_valid_request(req, geo, where):
    """READ and WRITE move a positive whole number of blocks, block-aligned
    and within capacity; FSYNC and NOP carry length 0."""
    bs, cap = geo
    if req.op in (OpKind.READ, OpKind.WRITE):
        assert req.length > 0 and req.length % bs == 0, (where, req)
        assert req.offset >= 0 and req.offset % bs == 0, (where, req)
        assert req.offset + req.length <= cap, (where, req)
    else:
        assert req.op in (OpKind.FSYNC, OpKind.NOP), (where, req)
        assert req.length == 0, (where, req)


class TestRequests:
    # three blocks: the corpus asks for up to four, so io_request_for clamps
    TINY = Geometry(4096, 3 * 4096)

    def test_offsets_are_block_aligned_and_bounded(self):
        for geo in (GEO, self.TINY):
            ops = set()
            clamped = False
            for s in generate_corpus(3, 50):
                io_index = 0
                for st in s.steps:
                    if isinstance(st, IoStep):
                        req = io_request_for(s, st, io_index,
                                             s.initial_state, geo)
                        assert_valid_request(req, geo, (s.task_id, io_index))
                        ops.add(req.op)
                        if st.kind in ("read", "write"):
                            clamped |= req.length < st.blocks * geo.block_size
                        io_index += 1
            assert ops == set(OpKind), geo
            assert clamped == (geo is self.TINY)
            # request and arrival workloads: a fresh one-block READ at 0
            next_request = request_stream(geo)
            reqs = [next_request() for _ in range(3)]
            for i, req in enumerate(reqs):
                assert_valid_request(req, geo, ("request_stream", i))
                assert (req.op, req.offset, req.length) == (
                    OpKind.READ, 0, geo.block_size)
            assert len({id(req) for req in reqs}) == len(reqs)

    def test_state_rule_depends_on_state(self):
        st = IoStep("read", 1, "state")
        s = spec(st)
        r1 = io_request_for(s, st, 0, 111, GEO)
        r2 = io_request_for(s, st, 0, 222, GEO)
        assert r1.offset != r2.offset


class TestOracleAndCorpus:
    def test_interpreter_is_deterministic(self):
        s = generate_corpus(1, 1)[0]
        assert interpret_task(s, GEO) == interpret_task(s, GEO)

    def test_generator_is_seed_deterministic(self):
        a = generate_corpus(7, 10)
        b = generate_corpus(7, 10)
        assert a == b
        assert a != generate_corpus(8, 10)

    def test_corpus_file_round_trip(self, tmp_path):
        specs = generate_corpus(11, 25)
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, specs)
        assert read_corpus(path) == specs

    def test_nested_spec_round_trip(self, tmp_path):
        inner = spec(C(), task_id=0)
        outer = spec(C(), NestedStep(inner), task_id=1)
        path = tmp_path / "nested.jsonl"
        write_corpus(path, [outer])
        assert read_corpus(path) == [outer]

    def test_max_steps_respected(self):
        for s in generate_corpus(2, 100, max_steps=5):
            assert 1 <= len(s.steps) <= 5
