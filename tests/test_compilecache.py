"""Compiled-artifact cache tests.

The persistent cache (``repro.compilecache``) journals parsed config,
expanded graph, and plan to disk. The contract under test:

* exact hit -> the cached graph (and plan, when the state/data
  fingerprints agree) is served without re-parsing;
* any edit -> partial hit (chunk-AST reuse only), never a stale graph;
* any corruption -- truncated file, flipped payload byte, version
  mismatch, garbage header, tampered meta half -- degrades to a cold
  build, mirroring ``tests/test_store_torn.py``;
* an exact hit is *lazy*: the big object-web pickle is digest-verified
  at load but not unpickled until a consumer touches config/graph/plan;
* the engine's warm plan is byte-identical to its cold plan;
* an ``IncrementalSession`` rebuild fallback clears the cache so a
  pre-rebuild graph is never served again.
"""

import os
import pickle

import pytest

from repro.cloud import CloudGateway
from repro.compilecache import (
    CompileCache,
    schema_fingerprint,
    variables_fingerprint,
)
from repro.compilecache.store import FORMAT_VERSION, _sha
from repro.core.engine import CloudlessEngine
from repro.deploy.incremental import IncrementalSession
from repro.graph import build_graph
from repro.lang import Configuration
from repro.state import StateDocument

SOURCE = '''
resource "aws_vpc" "main" {
  name       = "main-vpc"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "a" {
  name       = "subnet-a"
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 1)
}

resource "aws_s3_bucket" "logs" {
  name = "logs-bucket"
}
'''

EDITED = SOURCE.replace('"logs-bucket"', '"logs-bucket-v2"')


@pytest.fixture
def gateway():
    return CloudGateway.simulated(seed=3)


@pytest.fixture
def cache(tmp_path):
    return CompileCache(str(tmp_path / "cache"))


def store_artifact(cache, gateway, texts, variables=None):
    vfp = variables_fingerprint(variables)
    sfp = schema_fingerprint(gateway)
    config = Configuration.parse_streaming(texts)
    graph = build_graph(config)
    assert cache.store(texts, vfp, sfp, config, graph)
    return vfp, sfp


class TestLookup:
    def test_exact_hit_serves_cached_graph(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        lookup = cache.load(texts, vfp, sfp)
        assert lookup is not None and lookup.exact
        assert cache.exact_hits == 1
        assert ("managed", "aws_vpc", "main") in lookup.config.resources

    def test_exact_hit_is_lazy(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        lookup = cache.load(texts, vfp, sfp)
        assert lookup is not None and lookup.exact
        # the object web stays pickled until somebody needs it
        assert not lookup.materialized
        assert lookup.graph is not None
        assert lookup.materialized

    def test_edit_demotes_to_partial(self, cache, gateway):
        vfp, sfp = store_artifact(cache, gateway, {"main.clc": SOURCE})
        lookup = cache.load({"main.clc": EDITED}, vfp, sfp)
        assert lookup is not None and not lookup.exact
        assert cache.partial_hits == 1
        # partial artifacts still seed the streaming reparse
        cfg = Configuration.parse_streaming(
            {"main.clc": EDITED}, reuse=lookup.config
        )
        decl = cfg.resource("aws_s3_bucket", "logs")
        assert decl is not None

    def test_variables_change_is_a_miss(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        other = variables_fingerprint({"env": "prod"})
        assert other != vfp
        assert cache.load(texts, other, sfp) is None
        assert cache.misses == 1

    def test_schema_change_is_a_miss(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        wider = schema_fingerprint(CloudGateway.simulated(seed=3, synthetic=2))
        assert wider != sfp
        assert cache.load(texts, vfp, wider) is None

    def test_cold_cache_is_a_miss(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp = variables_fingerprint(None)
        sfp = schema_fingerprint(gateway)
        assert cache.load(texts, vfp, sfp) is None
        assert cache.misses == 1


class TestCorruption:
    """Every way a cache file can rot must read as a cold build."""

    def setup_artifact(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        return texts, vfp, sfp, cache.path_for(texts, vfp, sfp)

    def test_truncated_payload(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert cache.load(texts, vfp, sfp) is None
        assert cache.corrupt_rejects == 1

    def test_flipped_payload_byte(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert cache.load(texts, vfp, sfp) is None
        assert cache.corrupt_rejects == 1

    def test_version_mismatch(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        header, payload = open(path, "rb").read().split(b"\n", 1)
        import json

        meta = json.loads(header)
        meta["version"] = FORMAT_VERSION + 1
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n" + payload)
        assert cache.load(texts, vfp, sfp) is None
        assert cache.corrupt_rejects == 1

    def test_garbage_header(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        open(path, "wb").write(b"not json at all\njunk")
        assert cache.load(texts, vfp, sfp) is None
        assert cache.corrupt_rejects == 1

    def test_payload_not_an_artifact(self, cache, gateway):
        """A digest-consistent payload that is not our envelope is
        rejected *eagerly* at load, despite the lazy unpickle."""
        import json

        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            meta_blob = fh.read(header["meta_len"])
        payload = pickle.dumps({"not": "an artifact"})
        header["payload_sha"] = _sha(payload)
        header["payload_len"] = len(payload)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(meta_blob)
            fh.write(payload)
        assert cache.load(texts, vfp, sfp) is None
        assert cache.corrupt_rejects == 1

    def test_tampered_meta_rejected(self, cache, gateway):
        """The meta half carries the exactness table and the journaled
        plan text; a flipped meta byte must fail its own digest and
        read as a cold build, never redirect classification."""
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        blob = bytearray(open(path, "rb").read())
        nl = blob.index(b"\n")
        blob[nl + 10] ^= 0xFF  # inside the meta pickle
        open(path, "wb").write(bytes(blob))
        assert cache.load(texts, vfp, sfp) is None
        assert cache.corrupt_rejects == 1


class TestEngineWarmPath:
    def test_warm_plan_is_byte_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        cold_plan = cold.plan(SOURCE)
        assert cold.compile_cache.stores == 1

        warm = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        compiled = warm.compile(SOURCE)
        warm_plan = warm.plan(compiled)
        assert warm.compile_cache.exact_hits == 1
        assert warm_plan.render() == cold_plan.render()
        # the render came from the journaled plan text: the warm run
        # never paid the O(estate) unpickle of the artifact payload
        assert not compiled.lookup.materialized
        # ...but touching the object graph still works
        assert len(warm_plan.changes) == len(cold_plan.changes)
        assert compiled.lookup.materialized

        bare = CloudlessEngine(gateway=CloudGateway.simulated(seed=3))
        assert bare.plan(SOURCE).render() == cold_plan.render()

    def test_validate_is_the_same_on_cold_and_warm_cache(self, tmp_path):
        # the subnets overlap only once aws_vpc.main is deployed; the
        # rules check the configuration, so neither report may see the
        # state the cached graph was planned against
        vpc = (
            'resource "aws_vpc" "main" {\n  name = "w-vpc"\n'
            '  cidr_block = "10.0.0.0/16"\n}\n'
        )
        subnets = "".join(
            f'resource "aws_subnet" "{n}" {{\n  name = "w-{n}"\n'
            "  vpc_id = aws_vpc.main.id\n"
            "  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 1)\n}\n"
            for n in ("a", "b")
        )
        engine = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3),
            cache_dir=str(tmp_path / "cache"),
        )
        assert engine.apply(vpc).ok
        cold = engine.validate(vpc + subnets)
        engine.plan(vpc + subnets)  # stores the graph bound to state
        hits = engine.compile_cache.exact_hits
        warm = engine.validate(vpc + subnets)
        assert engine.compile_cache.exact_hits == hits + 1
        assert str(warm) == str(cold)

    def test_cached_plan_not_served_for_different_state(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        engine.plan(SOURCE)
        applied = engine.apply(SOURCE)
        assert applied.ok
        # estate now converged: the journaled create-everything plan
        # must not replay; the warm plan sees the new state
        noop = engine.plan(SOURCE)
        assert all(
            c.action.value == "noop" for c in noop.changes.values()
        )

    def test_warm_apply_matches_cold_apply(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        cold_res = cold.apply(SOURCE)
        assert cold_res.ok

        warm = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        warm_res = warm.apply(SOURCE)
        assert warm_res.ok
        assert warm.compile_cache.exact_hits >= 1
        assert (
            warm_res.apply.state.content_hash()
            == cold_res.apply.state.content_hash()
        )


class TestRebuildInvalidation:
    def test_rebuild_fallback_clears_cache(self, tmp_path):
        cache = CompileCache(str(tmp_path / "cache"))
        gateway = CloudGateway.simulated(seed=3)
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        assert cache.load(texts, vfp, sfp) is not None

        session = IncrementalSession(
            gateway, source=SOURCE, compile_cache=cache
        )
        state = StateDocument()
        session.plan(state)
        # a patch touching locals cannot be grafted onto the resident
        # graph: the session falls back to a full rebuild, which must
        # fire the cache-clear hook
        result = session.replan('locals {\n  extra = "x"\n}\n', state)
        assert result.mode == "rebuild"
        assert session.rebuilds == 1
        assert cache.load(texts, vfp, sfp) is None
        assert not [
            f
            for f in os.listdir(cache.cache_dir)
            if f.endswith(".clcc")
        ]
