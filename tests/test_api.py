"""The repro.api facade: one surface, CLI-consistent names, clean imports."""

import inspect
import subprocess
import sys

import pytest

SRC = "src"


def _run(code: str, *warning_flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *warning_flags, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": ""},
    )


class TestFacade:
    def test_compile_extract(self):
        from repro import api

        assert api.compile("x{a+}b").extract("aab") == [{"x": "aa"}]

    def test_compile_accepts_json_specs(self):
        from repro import api

        engine = api.compile({"op": "union", "of": ["x{a}.*", ".*y{b}"]})
        assert engine.count("ab") == 2

    def test_evaluate_streams_corpus_results(self):
        from repro import api

        results = list(api.evaluate(".*x{a+}.*", {"one": "ba", "two": "bb"}))
        assert [(r.doc_id, r.mappings) for r in results] == [
            ("one", ({"x": "a"},)),
            ("two", ()),
        ]

    def test_enumerate_is_lazy_and_ordered(self):
        from repro import api

        stream = api.enumerate(".*x{a+}.*", "ba")
        assert inspect.isgenerator(stream)
        assert list(stream) == [{"x": "a"}]

    def test_query_builds_a_shared_queryset(self):
        from repro import api

        queries = api.query(
            {
                "pair": "x{a+}b",
                "left": {
                    "op": "project",
                    "of": {"op": "ref", "name": "pair"},
                    "keep": ["x"],
                },
            }
        )
        assert queries.stats()["cores"] == 1
        assert queries.extract("aab")["left"] == [{"x": "aa"}]

    def test_query_with_corpus_evaluates_directly(self):
        from repro import api

        results = list(api.query({"q": "x{a}b"}, ["ab", "bb"]))
        assert [r.queries["q"] for r in results] == [[{"x": "a"}], []]

    def test_parameter_names_match_cli_flags(self):
        # The facade promises CLI-consistent names: opt_level, workers,
        # batch_size, spans.  A rename here is an API break.
        from repro import api

        for function, expected in [
            (api.compile, {"opt_level"}),
            (api.evaluate, {"opt_level", "workers", "batch_size", "spans"}),
            (api.enumerate, {"opt_level", "spans"}),
            (api.query, {"opt_level", "workers", "batch_size", "spans"}),
        ]:
            parameters = set(inspect.signature(function).parameters)
            missing = expected - parameters
            assert not missing, (function.__name__, missing)


class TestStartup:
    """``import repro.api`` loads only what a first mapping needs."""

    def test_import_loads_neither_numpy_nor_the_server(self):
        unwanted = ["numpy", "asyncio", "repro.server.app", "repro.server.dispatcher"]
        proc = _run(
            "import sys, repro.api\n"
            f"print([name for name in {unwanted!r} if name in sys.modules])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_server_exports_resolve_lazily(self):
        import repro.server
        from repro.server import dispatcher

        assert dispatcher.__name__ == "repro.server.dispatcher"
        for name in repro.server.__all__:
            value = getattr(repro.server, name)
            assert value.__module__.startswith("repro.server."), name

    def test_unknown_server_attribute_raises(self):
        import repro.server

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.server.no_such_name


class TestDeprecationPolicy:
    def test_importing_the_facade_is_warning_free(self):
        proc = _run("import repro.api", "-W", "error::DeprecationWarning")
        assert proc.returncode == 0, proc.stderr

    def test_import_repro_is_warning_free(self):
        proc = _run("import repro", "-W", "error::DeprecationWarning")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "access",
        [
            "import repro; repro.Spanner",
            "import repro; repro.compile_spanner",
            "import repro.engine; repro.engine.compile_spanner",
            "import repro.service; repro.service.cached_spanner",
            "from repro import Spanner",
            "from repro.engine import compile_spanner",
            "from repro.service import cached_spanner",
        ],
    )
    def test_deprecated_entry_points_warn_exactly_once(self, access):
        code = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('default')\n"
            f"    {access}\n"
            f"    {access}\n"
            "deprecations = [w for w in caught "
            "if issubclass(w.category, DeprecationWarning)]\n"
            "assert len(deprecations) == 1, deprecations\n"
            "message = str(deprecations[0].message)\n"
            "assert 'repro.api.compile' in message, message\n"
            "assert 'deprecated' in message, message\n"
        )
        proc = _run(code)
        assert proc.returncode == 0, proc.stderr

    def test_deprecated_entry_points_still_work(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            from repro import Spanner

            assert Spanner.compile("x{a}b").extract("ab") == [{"x": "a"}]
