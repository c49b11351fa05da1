package harness

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"

	"repro/internal/container"
	"repro/internal/intset"
	"repro/internal/kv"
	"repro/internal/stm"
	"repro/internal/wal"
	"repro/internal/workload"
)

// app is one benchmark application: a structure plus the rules for
// seeding it, drawing one operation, and auditing it afterwards. The
// paper's four intset structures and the container subsystem both
// implement it, so the measurement loop is shared.
//
// Drawing and executing are split (draw outside the transaction, step
// inside) so that retries replay identical choices and the worker
// loop can reuse one transactional closure for its whole run — no
// per-operation allocation inside the measured window.
type app interface {
	// seed pre-populates the structure to roughly half occupancy so
	// inserts and removes both do real work from the first measured
	// transaction.
	seed(s *stm.STM, rng *rand.Rand) error
	// draw samples one operation outside the transaction.
	draw(rng *rand.Rand) opDesc
	// step runs the drawn operation inside tx; it must be retry-safe.
	step(tx *stm.Tx, d opDesc) error
	// mixName reports the op-mix label for measured points: the mix's
	// name for apps that honour it, empty for fixed-workload apps.
	mixName() string
	// audit verifies structural integrity after the run.
	audit(s *stm.STM) error
}

// closer is the optional cleanup hook an app may implement when a run
// leaves external state behind (files, goroutines); Run invokes it
// after the measurement completes.
type closer interface{ close() error }

// labeler is the optional attribution hook: an app that implements it
// names each drawn operation with an interned transaction label (see
// stm.InternLabel), so a traced run's conflict matrix shows which
// operation kinds wait on which. Labels must be interned at setup,
// never per draw — label runs inside the measured loop.
type labeler interface{ label(d opDesc) stm.Label }

// seedHalf pre-populates a structure to half the key range, one
// insert transaction per sampled key — the shared seeding policy of
// every app.
func seedHalf(s *stm.STM, cfg Config, keys workload.KeyDist, rng *rand.Rand, insert func(tx *stm.Tx, key int) error) error {
	for i := 0; i < cfg.KeyRange/2; i++ {
		key := keys.Sample(rng)
		if err := s.Atomically(func(tx *stm.Tx) error { return insert(tx, key) }); err != nil {
			return err
		}
	}
	return nil
}

// opDesc is one drawn operation: everything step needs, fixed before
// the transaction starts so aborts replay the same choices.
type opDesc struct {
	op     workload.Op
	key    int
	insert bool    // intset: insert vs remove
	all    bool    // forest: update all trees
	tree   int     // forest: target tree
	now    int64   // kv: clock instant, sampled outside the transaction
	verb   int     // jobs: pipeline stage (submit/promote/complete/query)
	id     string  // jobs: job id, formatted outside the transaction
	score  float64 // jobs: priority for the promotion ZADD
}

// ContainerStructures are the structure names served by
// internal/container, in the order they were added.
var ContainerStructures = []string{"hashset", "queue", "omap"}

// KVStructures are the structure names served by internal/kv: the
// sharded string-keyed store behind cmd/stmkv, in-memory ("kv"), with
// a write-ahead log attached ("kvwal"), and the cross-type job
// pipeline over the container kinds ("jobs").
var KVStructures = []string{"kv", "kvwal", "jobs"}

// Structures returns every structure name the harness can run: the
// paper's four intset applications, the container subsystem's three,
// and the kv store.
func Structures() []string {
	out := append([]string{}, intset.Structures...)
	out = append(out, ContainerStructures...)
	return append(out, KVStructures...)
}

// newApp builds the application for cfg.Structure.
func newApp(cfg Config, keys workload.KeyDist, mix workload.OpMix) (app, error) {
	switch cfg.Structure {
	case "hashset":
		return &hashsetApp{set: container.NewHashSet[int](hashsetBuckets), keys: keys, mix: mix, cfg: cfg}, nil
	case "queue":
		return &queueApp{q: container.NewDeque[int](), keys: keys, mix: mix, cfg: cfg}, nil
	case "omap":
		return &omapApp{m: container.NewOMap[int, int](), keys: keys, mix: mix, cfg: cfg}, nil
	case "kv":
		return newKVApp(cfg, keys, mix), nil
	case "kvwal":
		a := newKVApp(cfg, keys, mix)
		a.logged = true
		return a, nil
	case "jobs":
		return &jobsApp{keys: keys, cfg: cfg}, nil
	default:
		set, err := intset.NewByName(cfg.Structure)
		if err != nil {
			return nil, fmt.Errorf("%w (harness structures: %v)", err, Structures())
		}
		forest, _ := set.(*intset.RBForest)
		return &intsetApp{set: set, forest: forest, keys: keys, cfg: cfg}, nil
	}
}

// intsetApp is the paper's workload: continuous random inserts and
// removes on a small key range (100% updates, half and half), with the
// forest's one-or-all variant. The op mix is fixed by the paper, so
// cfg.Mix does not apply here.
type intsetApp struct {
	set intset.Set
	// forest is non-nil when set is the red-black forest, hoisting the
	// type assertion out of the per-operation path.
	forest *intset.RBForest
	keys   workload.KeyDist
	cfg    Config
}

func (a *intsetApp) seed(s *stm.STM, rng *rand.Rand) error {
	return seedHalf(s, a.cfg, a.keys, rng, func(tx *stm.Tx, key int) error {
		_, err := a.set.Insert(tx, key)
		return err
	})
}

// mixName is empty: the intset apps run the paper's fixed workload,
// not a configurable mix.
func (a *intsetApp) mixName() string { return "" }

func (a *intsetApp) draw(rng *rand.Rand) opDesc {
	d := opDesc{
		key:    a.keys.Sample(rng),
		insert: rng.Int64N(2) == 0, // 100% updates, half insert half remove
	}
	if a.forest != nil {
		d.all = rng.Float64() < a.cfg.ForestAllProb
		d.tree = int(rng.Int64N(int64(a.forest.Size())))
	}
	return d
}

func (a *intsetApp) step(tx *stm.Tx, d opDesc) error {
	var err error
	switch {
	case a.forest != nil && d.all && d.insert:
		_, err = a.forest.InsertAll(tx, d.key)
	case a.forest != nil && d.all:
		_, err = a.forest.RemoveAll(tx, d.key)
	case a.forest != nil && d.insert:
		_, err = a.forest.InsertOne(tx, d.tree, d.key)
	case a.forest != nil:
		_, err = a.forest.RemoveOne(tx, d.tree, d.key)
	case d.insert:
		_, err = a.set.Insert(tx, d.key)
	default:
		_, err = a.set.Remove(tx, d.key)
	}
	return err
}

func (a *intsetApp) audit(s *stm.STM) error {
	keys, err := stm.Atomic(s, func(tx *stm.Tx) ([]int, error) {
		return a.set.Keys(tx)
	})
	if err != nil {
		return fmt.Errorf("harness: audit keys: %w", err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return fmt.Errorf("harness: audit: keys not strictly ascending at %d: %v", i, keys[i-1:i+1])
		}
	}
	switch v := a.set.(type) {
	case interface{ CheckInvariants(*stm.Tx) error }: // skiplist, rbtree
		if err := s.Atomically(v.CheckInvariants); err != nil {
			return fmt.Errorf("harness: audit %s: %w", a.cfg.Structure, err)
		}
	case *intset.RBForest:
		for i := 0; i < v.Size(); i++ {
			if err := s.Atomically(v.Tree(i).CheckInvariants); err != nil {
				return fmt.Errorf("harness: audit forest tree %d: %w", i, err)
			}
		}
	}
	return nil
}

// hashsetBuckets is the hash set's bucket count.
const hashsetBuckets = 64

// hashsetApp drives container.HashSet: point ops hash to one bucket
// (mostly disjoint under hashsetBuckets), and the mix's range
// op is a consistent whole-set Len — the long read-only scan that
// conflicts with every concurrent writer.
type hashsetApp struct {
	set  *container.HashSet[int]
	keys workload.KeyDist
	mix  workload.OpMix
	cfg  Config
}

func (a *hashsetApp) seed(s *stm.STM, rng *rand.Rand) error {
	return seedHalf(s, a.cfg, a.keys, rng, func(tx *stm.Tx, key int) error {
		_, err := a.set.Add(tx, key)
		return err
	})
}

func (a *hashsetApp) mixName() string { return a.mix.Name() }

func (a *hashsetApp) draw(rng *rand.Rand) opDesc {
	return opDesc{op: a.mix.Sample(rng), key: a.keys.Sample(rng)}
}

func (a *hashsetApp) step(tx *stm.Tx, d opDesc) error {
	var err error
	switch d.op {
	case workload.OpInsert:
		_, err = a.set.Add(tx, d.key)
	case workload.OpDelete:
		_, err = a.set.Remove(tx, d.key)
	case workload.OpRange:
		_, err = a.set.Len(tx)
	default:
		_, err = a.set.Contains(tx, d.key)
	}
	return err
}

func (a *hashsetApp) audit(s *stm.STM) error {
	if err := s.Atomically(a.set.CheckInvariants); err != nil {
		return fmt.Errorf("harness: audit hashset: %w", err)
	}
	return nil
}

// queueApp drives a container.Deque as a FIFO: inserts push at the
// back, deletes pop at the front, lookups peek at the front, and the
// mix's range op snapshots the first rangeSpan items. A pop that finds
// the queue empty pushes the drawn key instead: under a symmetric mix
// the queue length is a random walk whose excursions exceed any fixed
// seed within a measurement window, and without the fallback a drained
// queue turns half the measured commits into cheap no-ops, inflating
// throughput. With it, every committed operation does real queue work.
// Every producer conflicts with every producer at the back run and
// every consumer with every consumer at the front run, whatever the
// key distribution — the keys only supply the pushed values.
type queueApp struct {
	q    *container.Deque[int]
	keys workload.KeyDist
	mix  workload.OpMix
	cfg  Config
}

func (a *queueApp) seed(s *stm.STM, rng *rand.Rand) error {
	return seedHalf(s, a.cfg, a.keys, rng, func(tx *stm.Tx, key int) error {
		return a.q.PushBack(tx, key)
	})
}

func (a *queueApp) mixName() string { return a.mix.Name() }

func (a *queueApp) draw(rng *rand.Rand) opDesc {
	return opDesc{op: a.mix.Sample(rng), key: a.keys.Sample(rng)}
}

func (a *queueApp) step(tx *stm.Tx, d opDesc) error {
	var err error
	switch d.op {
	case workload.OpInsert:
		err = a.q.PushBack(tx, d.key)
	case workload.OpDelete:
		var ok bool
		_, ok, err = a.q.PopFront(tx)
		if err == nil && !ok {
			err = a.q.PushBack(tx, d.key) // empty: refill instead of no-op
		}
	case workload.OpRange:
		_, err = a.q.PeekFrontN(tx, rangeSpan)
	default:
		_, _, err = a.q.PeekFront(tx)
	}
	return err
}

func (a *queueApp) audit(s *stm.STM) error {
	if err := s.Atomically(a.q.CheckInvariants); err != nil {
		return fmt.Errorf("harness: audit queue: %w", err)
	}
	return nil
}

// omapApp drives container.OMap with keys doubling as values: point
// ops walk the tower path, and the mix's range op scans
// [key, key+rangeSpan) as one consistent read set.
type omapApp struct {
	m    *container.OMap[int, int]
	keys workload.KeyDist
	mix  workload.OpMix
	cfg  Config
}

func (a *omapApp) seed(s *stm.STM, rng *rand.Rand) error {
	return seedHalf(s, a.cfg, a.keys, rng, func(tx *stm.Tx, key int) error {
		_, _, err := a.m.Put(tx, key, key)
		return err
	})
}

func (a *omapApp) mixName() string { return a.mix.Name() }

func (a *omapApp) draw(rng *rand.Rand) opDesc {
	return opDesc{op: a.mix.Sample(rng), key: a.keys.Sample(rng)}
}

func (a *omapApp) step(tx *stm.Tx, d opDesc) error {
	var err error
	switch d.op {
	case workload.OpInsert:
		_, _, err = a.m.Put(tx, d.key, d.key)
	case workload.OpDelete:
		_, _, err = a.m.Delete(tx, d.key)
	case workload.OpRange:
		_, err = a.m.Range(tx, d.key, d.key+rangeSpan)
	default:
		_, _, err = a.m.Get(tx, d.key)
	}
	return err
}

func (a *omapApp) audit(s *stm.STM) error {
	if err := s.Atomically(a.m.CheckInvariants); err != nil {
		return fmt.Errorf("harness: audit omap: %w", err)
	}
	return nil
}

// kvApp drives the internal/kv store — the first string-keyed
// application in the harness: the integer keys drawn from the
// distribution index a precomputed name table ("key:000042"), so the
// measured loop samples skew without formatting costs. Point ops map
// to Get/Set/Del; the mix's range op is a consistent MGet over
// rangeSpan consecutive names. The store's shards grow under load
// inside the inserting transaction — a resize races the measured
// traffic, exactly as in cmd/stmkv.
//
// With logged set (Figure 9, "kvwal") a write-ahead log is attached
// after seeding, so every measured write transaction also captures its
// write set and enqueues it from its commit hook: the figure prices the
// logging path — capture, stripe-held enqueue, group-commit handoff —
// against Figure 8's in-memory baseline. The store arms the capture
// itself and does not wait for the record to reach disk: workers
// measure logging overhead, not the disk's fsync latency, which the
// group commit amortizes off the commit path anyway.
type kvApp struct {
	store  *kv.Store
	names  []string
	keys   workload.KeyDist
	mix    workload.OpMix
	cfg    Config
	logged bool
	walDir string
	log    *wal.Log
}

// kvShards is the shard count of the harness's kv store: small enough
// that whole-shard scans (resize, audit) stay cheap, large enough that
// point traffic spreads.
const kvShards = 8

func newKVApp(cfg Config, keys workload.KeyDist, mix workload.OpMix) *kvApp {
	names := make([]string, cfg.KeyRange)
	for i := range names {
		names[i] = fmt.Sprintf("key:%06d", i)
	}
	return &kvApp{names: names, keys: keys, mix: mix, cfg: cfg}
}

func (a *kvApp) seed(s *stm.STM, rng *rand.Rand) error {
	// The store binds to the run's STM, so it is built at seed time
	// (newApp runs before the STM exists). Its shards start small
	// relative to the key range: the seeding pass itself drives the
	// first resizes, and the measured window inherits a table at its
	// natural load factor.
	a.store = kv.New(s, kv.WithShards(kvShards))
	for i := 0; i < a.cfg.KeyRange/2; i++ {
		key := a.keys.Sample(rng)
		err := a.store.Atomically(func(tx *stm.Tx, now int64) error {
			return a.store.SetTx(tx, now, a.names[key], strconv.Itoa(key), 0)
		})
		if err != nil {
			return err
		}
	}
	if !a.logged {
		return nil
	}
	// The log is attached after seeding: the figure measures
	// steady-state logging, not the seeding burst.
	dir, err := os.MkdirTemp("", "stmbench-wal-")
	if err != nil {
		return fmt.Errorf("harness: wal dir: %w", err)
	}
	a.walDir = dir
	if a.log, err = wal.Open(dir, wal.Options{}); err != nil {
		return fmt.Errorf("harness: wal open: %w", err)
	}
	a.store.AttachWAL(a.log)
	return nil
}

// close releases a logged run's log and scratch directory; the harness
// calls it through the optional closer interface after the run.
func (a *kvApp) close() error {
	var err error
	if a.log != nil {
		err = a.log.Close()
	}
	if a.walDir != "" {
		if rerr := os.RemoveAll(a.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

func (a *kvApp) mixName() string { return a.mix.Name() }

func (a *kvApp) draw(rng *rand.Rand) opDesc {
	return opDesc{op: a.mix.Sample(rng), key: a.keys.Sample(rng), now: a.store.Now()}
}

func (a *kvApp) step(tx *stm.Tx, d opDesc) error {
	switch d.op {
	case workload.OpInsert:
		return a.store.SetTx(tx, d.now, a.names[d.key], a.names[d.key], 0)
	case workload.OpDelete:
		_, err := a.store.DelTx(tx, d.now, a.names[d.key])
		return err
	case workload.OpRange:
		// Consistent multi-key read over rangeSpan consecutive names —
		// the MGET shape, crossing shard boundaries on purpose.
		for j := d.key; j < d.key+rangeSpan; j++ {
			if _, _, err := a.store.GetTx(tx, d.now, a.names[j%len(a.names)]); err != nil {
				return err
			}
		}
		return nil
	default:
		_, _, err := a.store.GetTx(tx, d.now, a.names[d.key])
		return err
	}
}

func (a *kvApp) audit(s *stm.STM) error {
	if err := a.store.CheckInvariants(); err != nil {
		return fmt.Errorf("harness: audit kv: %w", err)
	}
	return nil
}

// jobsApp drives the kv store's container kinds through one shared
// pipeline — the Figure 10 application. Every job lives in exactly
// one of three typed keys: a pending list ("jobs:pending"), an active
// sorted set ("jobs:active", keyed by priority), and a done marker
// counted in a stats hash. The measured verbs are the pipeline's
// stages, each a single transaction spanning two container kinds:
//
//	submit   RPUSH pending + HINCRBY stats submitted:<shard>
//	promote  LPOP pending → ZADD active + HINCRBY stats promoted:<shard>
//	complete ZRANGE active 0 0 → ZREM + HINCRBY stats done:<shard>
//	query    LLEN + ZCARD + one stats field — the consistent read
//
// Promote and complete fall back to submit when their source is empty
// so every committed transaction does real cross-type work; the stats
// counters are sharded four ways (key&3) so the hash is contended but
// not a single hot field. Conservation — every submitted job is
// pending, active, or done — is the audit invariant.
type jobsApp struct {
	store *kv.Store
	keys  workload.KeyDist
	cfg   Config
}

const (
	jobsPending = "jobs:pending"
	jobsActive  = "jobs:active"
	jobsStats   = "jobs:stats"
	jobsShards  = 4
)

// jobsVerbLabels name the pipeline's verbs for the flight recorder,
// indexed by opDesc.verb. Interned once at package init: InternLabel
// takes a process-wide mutex, which must never sit on the drawn path.
var jobsVerbLabels = [4]stm.Label{
	stm.InternLabel("jobs:submit"),
	stm.InternLabel("jobs:promote"),
	stm.InternLabel("jobs:complete"),
	stm.InternLabel("jobs:query"),
}

// label implements labeler: a traced Figure 10 run attributes its
// convoy by verb ("promote waits on complete") instead of showing one
// anonymous pile-up.
func (a *jobsApp) label(d opDesc) stm.Label {
	if d.verb < 0 || d.verb >= len(jobsVerbLabels) {
		return jobsVerbLabels[0]
	}
	return jobsVerbLabels[d.verb]
}

func (a *jobsApp) seed(s *stm.STM, rng *rand.Rand) error {
	a.store = kv.New(s, kv.WithShards(kvShards))
	// Seed a backlog so promote and complete do real work from the
	// first measured transaction: half the key range pending, a quarter
	// already active.
	now := a.store.Now()
	for i := 0; i < a.cfg.KeyRange/2; i++ {
		d := a.drawFor(rng, 0)
		if err := s.Atomically(func(tx *stm.Tx) error { return a.step(tx, d) }); err != nil {
			return err
		}
	}
	for i := 0; i < a.cfg.KeyRange/4; i++ {
		// Draw the score before entering the transaction: a retry must
		// replay the same decision, not advance the RNG again (txpure).
		score := rng.Float64() * 100
		err := s.Atomically(func(tx *stm.Tx) error {
			job, ok, err := a.store.LPopTx(tx, now, jobsPending)
			if err != nil || !ok {
				return err
			}
			_, err = a.store.ZAddTx(tx, now, jobsActive, job, score)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (a *jobsApp) mixName() string { return "" }

// drawFor fixes one operation with the given verb; draw samples the
// verb from the pipeline mix: 40% submit, 30% promote, 20% complete,
// 10% query.
func (a *jobsApp) drawFor(rng *rand.Rand, verb int) opDesc {
	return opDesc{
		verb:  verb,
		key:   a.keys.Sample(rng),
		id:    strconv.FormatUint(rng.Uint64(), 36),
		score: rng.Float64() * 100,
		now:   a.store.Now(),
	}
}

func (a *jobsApp) draw(rng *rand.Rand) opDesc {
	verb := 0
	switch p := rng.Float64(); {
	case p < 0.40:
		verb = 0 // submit
	case p < 0.70:
		verb = 1 // promote
	case p < 0.90:
		verb = 2 // complete
	default:
		verb = 3 // query
	}
	return a.drawFor(rng, verb)
}

// submit is the shared push+count step; promote and complete fall
// back to it when their source container is empty.
func (a *jobsApp) submit(tx *stm.Tx, d opDesc) error {
	if _, err := a.store.RPushTx(tx, d.now, jobsPending, d.id); err != nil {
		return err
	}
	_, err := a.store.HIncrTx(tx, d.now, jobsStats, "submitted:"+strconv.Itoa(d.key&(jobsShards-1)), 1)
	return err
}

func (a *jobsApp) step(tx *stm.Tx, d opDesc) error {
	shard := strconv.Itoa(d.key & (jobsShards - 1))
	switch d.verb {
	case 1: // promote: pending list → active zset, one transaction
		job, ok, err := a.store.LPopTx(tx, d.now, jobsPending)
		if err != nil {
			return err
		}
		if !ok {
			return a.submit(tx, d)
		}
		if _, err := a.store.ZAddTx(tx, d.now, jobsActive, job, d.score); err != nil {
			return err
		}
		_, err = a.store.HIncrTx(tx, d.now, jobsStats, "promoted:"+shard, 1)
		return err
	case 2: // complete: best active job → done counter
		entries, err := a.store.ZRangeTx(tx, d.now, jobsActive, 0, 0)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			return a.submit(tx, d)
		}
		if _, err := a.store.ZRemTx(tx, d.now, jobsActive, entries[0].Member); err != nil {
			return err
		}
		_, err = a.store.HIncrTx(tx, d.now, jobsStats, "done:"+shard, 1)
		return err
	case 3: // query: consistent snapshot across all three kinds
		if _, err := a.store.LLenTx(tx, d.now, jobsPending); err != nil {
			return err
		}
		if _, err := a.store.ZCardTx(tx, d.now, jobsActive); err != nil {
			return err
		}
		_, _, err := a.store.HGetTx(tx, d.now, jobsStats, "submitted:"+shard)
		return err
	default:
		return a.submit(tx, d)
	}
}

// audit checks conservation in one consistent transaction: every
// submitted job is pending, active, or done — nothing lost, nothing
// duplicated — then runs the store's structural invariants.
func (a *jobsApp) audit(s *stm.STM) error {
	now := a.store.Now()
	err := s.Atomically(func(tx *stm.Tx) error {
		pending, err := a.store.LLenTx(tx, now, jobsPending)
		if err != nil {
			return err
		}
		active, err := a.store.ZCardTx(tx, now, jobsActive)
		if err != nil {
			return err
		}
		stats, err := a.store.HGetAllTx(tx, now, jobsStats)
		if err != nil {
			return err
		}
		var submitted, done int64
		for _, f := range stats {
			n, err := strconv.ParseInt(f.V, 10, 64)
			if err != nil {
				return fmt.Errorf("stats field %s=%q: %w", f.K, f.V, err)
			}
			switch {
			case len(f.K) > 10 && f.K[:10] == "submitted:":
				submitted += n
			case len(f.K) > 5 && f.K[:5] == "done:":
				done += n
			}
		}
		if submitted != int64(pending+active)+done {
			return fmt.Errorf("conservation broken: submitted %d != pending %d + active %d + done %d",
				submitted, pending, active, done)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("harness: audit jobs: %w", err)
	}
	if err := a.store.CheckInvariants(); err != nil {
		return fmt.Errorf("harness: audit jobs: %w", err)
	}
	return nil
}
