package structix_test

import "structix"

// fixtureStore is what TestLayoutFixtures uses of an opened store.
type fixtureStore interface {
	Snapshot() *structix.ShardedSnapshot
	Eval(p *structix.Path) []structix.NodeID
	ApplyScript(ops []structix.ScriptOp) (structix.OpResult, error)
	Close() error
}

// openFixture opens the store in dir in whichever layout dir holds, and
// reports the journal records each shard replayed.
func openFixture(dir string) (fixtureStore, []int, error) {
	db, err := structix.Open(dir, structix.Options{Sync: structix.SyncNone, CompactEvery: -1})
	if err != nil {
		return nil, nil, err
	}
	replayed := make([]int, db.NumShards())
	for s := range replayed {
		replayed[s] = db.Shard(s).Stats().ReplayedRecords
	}
	return db, replayed, nil
}
