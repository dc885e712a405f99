"""The coalescing dispatcher: dedup, watermarks, shedding, drain."""

import asyncio
import threading

import pytest

from repro.server import dispatcher as dispatcher_module
from repro.server.dispatcher import (
    Dispatcher,
    DispatcherConfig,
    Overloaded,
    RequestTooLarge,
)
from repro.server.protocol import ENUMERATE, EVALUATE, SpanRequest
from repro.service.backend import ThreadBackend
from repro.service.cache import SpannerCache
from repro.service.evaluate import evaluate_records


def request(pattern, documents, mode=ENUMERATE, opt_level=None):
    return SpanRequest(
        mode=mode,
        pattern=pattern,
        documents=tuple(
            (f"doc-{position:05d}", text)
            for position, text in enumerate(documents)
        ),
        opt_level=opt_level,
    )


def run(main):
    return asyncio.run(main())


async def started(config=None, cache=None) -> Dispatcher:
    dispatcher = Dispatcher(config or DispatcherConfig(), cache=cache)
    await dispatcher.start()
    return dispatcher


class TestCoalescing:
    def test_concurrent_requests_share_one_compile(self):
        """N concurrent engine() calls for one pattern: one cache miss."""

        class SlowCache(SpannerCache):
            def __init__(self):
                super().__init__()
                self.calls = 0
                self.release = threading.Event()

            def get(self, source, opt_level=None):
                self.calls += 1
                assert self.release.wait(timeout=10.0)
                return super().get(source, opt_level)

        async def main():
            cache = SlowCache()
            dispatcher = await started(cache=cache)
            ask = request(".*x{a+}.*", ["ba"])
            tasks = [
                asyncio.ensure_future(dispatcher.engine(ask)) for _ in range(8)
            ]
            await asyncio.sleep(0.05)  # everyone queued behind the compile
            cache.release.set()
            engines = await asyncio.gather(*tasks)
            assert cache.calls == 1
            assert all(engine is engines[0] for engine in engines)
            coalesced = dispatcher.metrics.value(
                "repro_compiles_coalesced_total"
            )
            assert coalesced == 7
            # Later calls resolve through the cache's pattern memo and
            # get the same engine.
            assert (await dispatcher.engine(ask)) is engines[0]
            assert cache.stats()["hits"] >= 1
            await dispatcher.close()

        run(main)

    def test_distinct_opt_levels_do_not_coalesce(self):
        async def main():
            dispatcher = await started()
            one = await dispatcher.engine(request("x{a}", ["a"], opt_level=1))
            two = await dispatcher.engine(request("x{a}", ["a"], opt_level=0))
            assert one is not two
            await dispatcher.close()

        run(main)

    def test_compile_error_propagates_and_does_not_wedge(self):
        async def main():
            dispatcher = await started()
            bad = request("x{", ["a"])
            from repro.util.errors import SpannerError

            with pytest.raises(SpannerError):
                await dispatcher.engine(bad)
            # The failed key is forgotten: a good pattern still works.
            engine = await dispatcher.engine(request("x{a}", ["a"]))
            assert engine is not None
            await dispatcher.close()

        run(main)


class TestMicroBatching:
    def test_size_watermark_flushes_immediately(self):
        async def main():
            config = DispatcherConfig(batch_max_size=4, batch_max_delay=30.0)
            dispatcher = await started(config)
            ask = request(".*x{a+}.*", ["ba", "aa", "ab", "bb"])
            engine = await dispatcher.engine(ask)
            futures = dispatcher.submit(engine, ask)
            # 4 documents == batch_max_size: no timer wait needed.
            results = await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            assert [error for _, error in results] == [None] * 4
            assert dispatcher.metrics.value("repro_batches_total") == 1
            assert (
                dispatcher.metrics.value("repro_batch_documents_sum") == 4
            )
            await dispatcher.close()

        run(main)

    def test_delay_watermark_flushes_partial_batch(self):
        async def main():
            config = DispatcherConfig(batch_max_size=100, batch_max_delay=0.01)
            dispatcher = await started(config)
            ask = request(".*x{a+}.*", ["ba"])
            engine = await dispatcher.engine(ask)
            (future,) = dispatcher.submit(engine, ask)
            payload, error = await asyncio.wait_for(future, 10.0)
            assert error is None
            assert payload == ({"x": "a"},)
            await dispatcher.close()

        run(main)

    def test_batches_group_across_requests(self):
        async def main():
            config = DispatcherConfig(batch_max_size=100, batch_max_delay=0.02)
            dispatcher = await started(config)
            asks = [request(".*x{a+}.*", [f"b{'a' * n}"]) for n in range(1, 6)]
            engine = await dispatcher.engine(asks[0])
            futures = [dispatcher.submit(engine, ask)[0] for ask in asks]
            await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            # All five single-document requests rode one batch.
            assert dispatcher.metrics.value("repro_batches_total") == 1
            assert dispatcher.metrics.value("repro_batch_documents_sum") == 5
            await dispatcher.close()

        run(main)

    def test_mixed_modes_batch_separately_with_correct_payloads(self):
        async def main():
            config = DispatcherConfig(batch_max_size=100, batch_max_delay=0.01)
            dispatcher = await started(config)
            enumerate_ask = request(".*x{a+}.*", ["ba"], mode=ENUMERATE)
            evaluate_ask = request(".*x{a+}.*", ["ba"], mode=EVALUATE)
            engine = await dispatcher.engine(enumerate_ask)
            (enum_future,) = dispatcher.submit(engine, enumerate_ask)
            (eval_future,) = dispatcher.submit(engine, evaluate_ask)
            (enum_payload, _), (eval_payload, _) = await asyncio.wait_for(
                asyncio.gather(enum_future, eval_future), 10.0
            )
            assert enum_payload == ({"x": "a"},)
            assert eval_payload is True
            assert dispatcher.metrics.value("repro_batches_total") == 2
            await dispatcher.close()

        run(main)

    def test_per_document_error_isolation(self):
        async def main():
            dispatcher = await started(DispatcherConfig(batch_max_delay=0.005))
            ask = request(".*x{a+}.*", ["ba", None, "aa"])  # None explodes
            engine = await dispatcher.engine(ask)
            futures = dispatcher.submit(engine, ask)
            results = await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            assert results[0][1] is None and results[2][1] is None
            assert results[1][0] is None and results[1][1] is not None
            await dispatcher.close()

        run(main)

    def test_large_request_goes_out_as_full_batches(self):
        async def main():
            dispatcher = await started()
            ask = request(".*x{a+}.*", ["ba"] * 64)
            engine = await dispatcher.engine(ask)
            futures = dispatcher.submit(engine, ask)
            assert dispatcher.metrics.value("repro_batches_total") == 4
            assert dispatcher.metrics.value("repro_batch_documents_sum") == 64
            await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            await dispatcher.close()

        run(main)


class HeldPool(ThreadBackend):
    """Stands in for the worker pool: ``workers`` threads whose batches
    run only once ``release`` is set, recording each batch's size."""

    def __init__(self, workers, **_options):
        super().__init__(workers)
        self.release = threading.Event()
        self.sizes = []

    def submit(self, engine, records, *, kind="mappings", spans=False):
        batch = list(records)
        self.sizes.append(len(batch))

        def run():
            assert self.release.wait(timeout=10.0)
            return evaluate_records(engine, batch, kind, spans)

        return self._ensure_executor().submit(run)


@pytest.fixture()
def held_pool(monkeypatch):
    monkeypatch.setattr(dispatcher_module, "ProcessBackend", HeldPool)


@pytest.mark.usefixtures("held_pool")
class TestIdleWorkers:
    """On a worker pool a partial batch goes out while a worker is idle;
    it gathers documents only while every worker is busy, and at most
    until the delay watermark."""

    def test_lone_document_goes_out_without_linger(self):
        async def main():
            dispatcher = await started(DispatcherConfig(workers=2))
            dispatcher._backend.release.set()
            ask = request(".*x{a+}.*", ["ba"])
            engine = await dispatcher.engine(ask)
            (future,) = dispatcher.submit(engine, ask)
            # Sent inside submit(), before this coroutine yields.
            assert dispatcher.metrics.value("repro_batches_total") == 1
            assert dispatcher.stats()["open_batches"] == 0
            payload, error = await asyncio.wait_for(future, 10.0)
            assert error is None and payload == ({"x": "a"},)
            await dispatcher.close()

        run(main)

    def test_concurrent_requests_do_not_convoy_onto_one_worker(self):
        async def main():
            dispatcher = await started(DispatcherConfig(workers=2))
            dispatcher._backend.release.set()
            asks = [request(".*x{a+}.*", [text]) for text in ("ba", "baa")]
            engine = await dispatcher.engine(asks[0])
            futures = [dispatcher.submit(engine, ask)[0] for ask in asks]
            assert dispatcher.metrics.value("repro_batches_total") == 2
            await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            assert dispatcher._backend.sizes == [1, 1]
            await dispatcher.close()

        run(main)

    def test_busy_worker_gathers_documents_until_it_frees(self):
        async def main():
            config = DispatcherConfig(workers=1, batch_max_delay=30.0)
            dispatcher = await started(config)
            backend = dispatcher._backend
            asks = [request(".*x{a+}.*", [text]) for text in ("ba", "bb", "bba")]
            engine = await dispatcher.engine(asks[0])
            first = dispatcher.submit(engine, asks[0])  # takes the worker
            later = [dispatcher.submit(engine, ask)[0] for ask in asks[1:]]
            await asyncio.sleep(0.05)
            # The worker is held: the two later documents share one batch.
            assert backend.sizes == [1]
            assert dispatcher.stats()["open_batches"] == 1
            backend.release.set()
            results = await asyncio.wait_for(
                asyncio.gather(*first, *later), 10.0
            )
            assert results == [(({"x": "a"},), None), ((), None), (({"x": "a"},), None)]
            assert backend.sizes == [1, 2]
            waits = dispatcher.stats()["batch_wait_seconds"]
            assert waits["count"] == 2
            assert waits["sum"] >= 0.04  # the gathered batch waited
            await dispatcher.close()

        run(main)

    def test_delay_bounds_the_wait_while_every_worker_is_busy(self):
        async def main():
            config = DispatcherConfig(
                workers=1, batch_max_size=2, batch_max_delay=0.02
            )
            dispatcher = await started(config)
            backend = dispatcher._backend
            full = request(".*x{a+}.*", ["ba", "aa"])
            lone = request(".*y{b+}.*", ["ab"])
            engine = await dispatcher.engine(full)
            other = await dispatcher.engine(lone)
            # Full batches go out on arrival and hold the one worker ...
            held = dispatcher.submit(engine, full) + dispatcher.submit(engine, full)
            (parked,) = dispatcher.submit(other, lone)
            assert dispatcher.metrics.value("repro_batches_total") == 2
            assert dispatcher.stats()["open_batches"] == 1
            await asyncio.sleep(0.1)
            # ... yet the lone document went out when its delay ran out.
            assert dispatcher.metrics.value("repro_batches_total") == 3
            assert dispatcher.stats()["open_batches"] == 0
            assert not any(future.done() for future in held)
            backend.release.set()
            await asyncio.wait_for(asyncio.gather(*held, parked), 10.0)
            assert backend.sizes == [2, 2, 1]
            assert parked.result() == (({"y": "b"},), None)
            await dispatcher.close()

        run(main)


class TestBackpressure:
    def test_sheds_past_max_pending(self):
        async def main():
            config = DispatcherConfig(
                batch_max_size=100, batch_max_delay=30.0, max_pending=3
            )
            dispatcher = await started(config)
            ask = request(".*x{a+}.*", ["ba", "aa"])
            engine = await dispatcher.engine(ask)
            first = dispatcher.submit(engine, ask)  # 2 pending, parked
            with pytest.raises(Overloaded):
                dispatcher.submit(engine, ask)  # 2 + 2 > 3: shed whole
            assert dispatcher.metrics.value("repro_shed_total") == 2
            # Shedding queued nothing: pending still 2, and room for 1.
            assert dispatcher.stats()["pending_documents"] == 2
            single = request(".*x{a+}.*", ["ab"])
            extra = dispatcher.submit(engine, single)
            dispatcher.flush_all()
            await asyncio.wait_for(
                asyncio.gather(*first, *extra), 10.0
            )
            assert dispatcher.stats()["pending_documents"] == 0
            await dispatcher.close()

        run(main)

    def test_request_larger_than_queue_is_rejected_not_shed(self):
        async def main():
            config = DispatcherConfig(max_pending=2)
            dispatcher = await started(config)
            ask = request(".*x{a+}.*", ["ba", "aa", "ab"])  # 3 > 2
            engine = await dispatcher.engine(ask)
            # Even with an empty queue a retry could never succeed, so
            # this is RequestTooLarge (HTTP 413), not Overloaded (429).
            with pytest.raises(RequestTooLarge):
                dispatcher.submit(engine, ask)
            assert dispatcher.stats()["pending_documents"] == 0
            await dispatcher.close()

        run(main)


class TestDrain:
    def test_close_flushes_parked_batches(self):
        async def main():
            config = DispatcherConfig(batch_max_size=100, batch_max_delay=30.0)
            dispatcher = await started(config)
            ask = request(".*x{a+}.*", ["ba", "aa"])
            engine = await dispatcher.engine(ask)
            futures = dispatcher.submit(engine, ask)
            assert not any(future.done() for future in futures)
            await asyncio.wait_for(dispatcher.close(), 10.0)
            results = [future.result() for future in futures]
            assert [error for _, error in results] == [None, None]

        run(main)

    def test_submissions_during_drain_flush_immediately(self):
        async def main():
            config = DispatcherConfig(batch_max_size=100, batch_max_delay=30.0)
            dispatcher = await started(config)
            ask = request(".*x{a+}.*", ["ba"])
            engine = await dispatcher.engine(ask)
            dispatcher.flush_all()  # drain phase: no watermark waits now
            (future,) = dispatcher.submit(engine, ask)
            payload, error = await asyncio.wait_for(future, 10.0)
            assert error is None and payload == ({"x": "a"},)
            await dispatcher.close()
            with pytest.raises(RuntimeError):
                dispatcher.submit(engine, ask)

        run(main)


class TestNaiveMode:
    def test_no_cache_no_batching(self):
        async def main():
            dispatcher = await started(DispatcherConfig(naive=True))
            ask = request(".*x{a+}.*", ["ba", "aa"])
            first = await dispatcher.engine(ask)
            second = await dispatcher.engine(ask)
            assert first is not second  # every request compiles afresh
            futures = dispatcher.submit(first, ask)
            results = await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            assert [error for _, error in results] == [None, None]
            # One "batch" per document, none grouped.
            assert dispatcher.metrics.value("repro_batches_total") == 0
            await dispatcher.close()

        run(main)


class TestWorkerPoolMode:
    def test_batches_run_on_worker_processes(self):
        async def main():
            config = DispatcherConfig(workers=2, batch_max_delay=0.005)
            dispatcher = await started(config)
            ask = request(".*x{a+}.*", ["ba", "aa", "bb"])
            engine = await dispatcher.engine(ask)
            futures = dispatcher.submit(engine, ask)
            results = await asyncio.wait_for(asyncio.gather(*futures), 30.0)
            payloads = [payload for payload, _ in results]
            assert payloads[0] == ({"x": "a"},)
            assert payloads[2] == ()
            await dispatcher.close()

        run(main)
