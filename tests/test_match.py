"""Full matches: termination, outcomes, records, and determinism."""

import hashlib
import json

from lintscore.metrics import OpponentSet
from lintscore.microlang import parse
from lintscore.obfuscate import obfuscate
from lintscore.resources import data_path
from lintscore.sim import (
    GameState,
    play_match,
    snapshot_digest,
    state_from_map_dict,
)

ATTACK_ALL = "for(Unit u){\n    u.attack(Closest)\n}"
IDLE_ALL = "for(Unit u){\n    u.idle()\n}"
HARVEST_ALL = "for(Unit u){\n    u.harvest(50)\n}"


def duel_state():
    state = GameState(8, 8)
    state.add_unit("Heavy", 0, 2, 2)
    state.add_unit("Worker", 1, 3, 3)
    return state


class TestTermination:
    def test_elimination_win(self):
        record = play_match(parse(ATTACK_ALL), parse(""), duel_state())
        assert record.outcome == 1
        assert not record.fixed_point
        assert record.ticks == 1

    def test_elimination_loss(self):
        state = GameState(8, 8)
        state.add_unit("Worker", 0, 3, 3)
        state.add_unit("Heavy", 1, 2, 2)
        record = play_match(parse(""), parse(ATTACK_ALL), state)
        assert record.outcome == -1

    def test_repeated_state_is_a_draw(self):
        state = GameState(8, 8)
        state.add_unit("Base", 0, 1, 1)
        state.add_unit("Base", 1, 6, 6)
        record = play_match(parse(""), parse(""), state, max_ticks=100)
        assert record.fixed_point
        assert record.outcome == 0
        assert record.ticks == 1

    def test_tick_limit_draw(self):
        state = GameState(8, 8)
        state.add_unit("Worker", 0, 1, 1)
        state.add_unit("Resource", None, 0, 0, resources=100)
        state.add_unit("Base", 0, 2, 2)
        state.add_unit("Heavy", 1, 7, 7)
        record = play_match(
            parse(HARVEST_ALL), parse(""), state, max_ticks=3
        )
        assert record.outcome == 0
        assert not record.fixed_point
        assert record.ticks == 3


class TestRecords:
    def test_decision_entries_cover_every_tick(self):
        state = GameState(8, 8)
        state.add_unit("Worker", 0, 4, 4)
        state.add_unit("Resource", None, 0, 0, resources=100)
        state.add_unit("Heavy", 1, 7, 7)
        record = play_match(parse(HARVEST_ALL), parse(IDLE_ALL), state, max_ticks=3)
        assert len(record.entries) == 3
        worker_uid = 0
        assert all(worker_uid in e.actions for e in record.entries)

    def test_features_count_spawns_and_harvest(self):
        data = json.loads(
            data_path("maps", "BaseWorkers-8x8.json").read_text()
        )
        state = state_from_map_dict(data, seed=0)
        train = parse(
            "for(Unit u){\n    u.train(Worker,Down,4)\n    u.harvest(50)\n}"
        )
        record = play_match(train, parse(IDLE_ALL), state, max_ticks=60)
        workers_trained = record.features[0][0]
        collected = record.features[0][6]
        assert workers_trained >= 1
        assert collected >= 1
        assert record.features[1] == (0, 0, 0, 0, 0, 0, 0)

    def test_to_json_shape(self):
        record = play_match(parse(ATTACK_ALL), parse(""), duel_state())
        data = record.to_json()
        assert set(data) == {
            "outcome",
            "ticks",
            "fixed_point",
            "features",
            "dropped_actions",
            "decisions",
        }
        assert data["decisions"][0]["state"] == record.entries[0].digest
        json.dumps(data)  # serializable

    def test_snapshot_digest_stability(self):
        state = duel_state()
        assert snapshot_digest(state.snapshot()) == snapshot_digest(
            state.clone().snapshot()
        )


class TestDeterminism:
    def test_identical_replays(self):
        data = json.loads(
            data_path("maps", "BaseWorkers-8x8.json").read_text()
        )
        p0 = parse(
            "for(Unit u){\n    u.train(Worker,Down,2)\n    u.harvest(25)\n"
            "    u.attack(Random)\n}"
        )
        p1 = parse(ATTACK_ALL)
        first = play_match(p0, p1, state_from_map_dict(data, seed=4), max_ticks=150)
        second = play_match(p0, p1, state_from_map_dict(data, seed=4), max_ticks=150)
        assert first.to_json() == second.to_json()

    def test_initial_state_unchanged(self):
        state = duel_state()
        before = state.snapshot()
        play_match(parse(ATTACK_ALL), parse(""), state)
        assert state.snapshot() == before

    def test_load_map_round_trip(self):
        path = data_path("maps", "BaseWorkers-16x16A.json")
        state = state_from_map_dict(json.loads(path.read_text()), seed=2)
        assert (state.width, state.height) == (16, 16)
        assert state.seed == 2
        assert state.player_resources == [5, 5]
        kinds = sorted(u.kind for u in state.units.values())
        assert kinds.count("Base") == 2
        assert kinds.count("Worker") == 2
        assert kinds.count("Resource") == 4


# SHA-256 over every record below, computed while the simulator still kept a
# decision period and a tick counter in the state; the bytes must not change.
RECORD_DIGEST = "9127d1ca3fdc6d70f62661ad328ec59240c2f449fdc0947fcd274d5a6f20b3be"


def test_record_digest_is_pinned():
    """Every ``OpponentSet.matches`` record of pool16 in name order, each
    program at obfuscation levels 0, 1 and 2, on fresh standard-8 then
    standard-16 sets (1,200 records), hashed through ``to_json``."""
    from lintscore.harness import load_program_set

    pool = load_program_set("pool16")
    digest = hashlib.sha256()
    records = 0
    for size in (8, 16):
        oset = OpponentSet.from_file(data_path(f"opponents{size}.json"))
        for _, program in pool:
            for level in (0, 1, 2):
                padded = obfuscate(program, level) if level else program
                for record in oset.matches(padded):
                    assert record.ticks == len(record.entries)
                    text = json.dumps(record.to_json(), sort_keys=True)
                    digest.update(text.encode())
                    records += 1
    assert records == 1200
    assert digest.hexdigest() == RECORD_DIGEST
