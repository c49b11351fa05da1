package kvclient

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Load is the size of one Drive run; the workload itself is fixed.
type Load struct {
	Clients int  // concurrent connections, at most maxClients
	Ops     int  // operations per connection
	BinKeys bool // a binary-hostile key table (NULs, CRLFs, high bytes)
}

// The fixed workload. Audit checks conservation over the same
// accounts and ledger, and the FIFO order of the same lists.
const (
	keyRange         = 512    // key universe size
	keyDist          = "zipf" // key distribution (see workload.NewKeyDist)
	transferAccounts = 8      // conservation-checked transfer accounts
	initialBalance   = 1000   // what each account and ledger field is seeded with
	transferShare    = 0.2    // fraction of ops that are MULTI/EXEC transfers
	loadSeed         = 0x5eed // workload seed
	ledgerKey        = "stats:hash"

	// maxClients bounds a run: client g owns list:<g>, and Audit walks
	// list:0 .. list:<maxClients-1>.
	maxClients = 64
)

// counters aggregates what the generator actually did.
type counters struct {
	gets, sets, incrs, dels, mgets, transfers, expires atomic.Int64
	hincrs, pushes, pops, zadds                        atomic.Int64
}

// opLats is one client's client-side latency record: wall time from
// the first byte of the request to the last byte of the reply, one
// histogram per op kind. Each client owns its own (histograms are not
// concurrency-safe); Drive merges them after the run. A transfer times
// the whole MULTI..EXEC conversation — that is the unit a caller waits
// for.
type opLats struct {
	get, set, incr, del, mget, expire, transfer, typed metrics.Histogram
}

// merge folds another client's record into this one.
func (l *opLats) merge(o *opLats) {
	l.get.Merge(&o.get)
	l.set.Merge(&o.set)
	l.incr.Merge(&o.incr)
	l.del.Merge(&o.del)
	l.mget.Merge(&o.mget)
	l.expire.Merge(&o.expire)
	l.transfer.Merge(&o.transfer)
	l.typed.Merge(&o.typed)
}

// report renders one "lat <kind> p50/p95/p99" line per op kind that
// ran. Quantiles are log2-bucket estimates (factor of two), which is
// exactly the resolution a closed-loop generator can honestly claim.
func (l *opLats) report() string {
	var b strings.Builder
	for _, e := range []struct {
		name string
		h    *metrics.Histogram
	}{
		{"get", &l.get}, {"set", &l.set}, {"incr", &l.incr}, {"del", &l.del},
		{"mget", &l.mget}, {"expire", &l.expire}, {"transfer", &l.transfer},
		{"typed", &l.typed},
	} {
		if e.h.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  lat %-8s p50=%-10v p95=%-10v p99=%-10v (n=%d)",
			e.name,
			e.h.Quantile(0.50).Round(time.Microsecond),
			e.h.Quantile(0.95).Round(time.Microsecond),
			e.h.Quantile(0.99).Round(time.Microsecond),
			e.h.Count())
	}
	return b.String()
}

// Drive seeds the accounts and the ledger, drives addr with
// l.Clients closed-loop connections of l.Ops operations each, and ends
// with Audit. Every reply is checked on the way: no command may answer
// an error, a transfer answers QUEUED twice and then two integers, a
// pop returns the client's next element in FIFO order and a score
// reads back as written. It returns a report of what ran and how long
// each kind of operation took.
func Drive(addr string, l Load) (string, error) {
	if l.Clients < 1 || l.Ops < 1 {
		return "", fmt.Errorf("kvclient: need positive clients and ops")
	}
	if l.Clients > maxClients {
		return "", fmt.Errorf("kvclient: a run has at most %d clients (Audit checks list:0..list:%d), not %d",
			maxClients, maxClients-1, l.Clients)
	}
	dist, err := workload.NewKeyDist(keyDist, keyRange)
	if err != nil {
		return "", err
	}
	// Precompute the string key universe once: the generator should
	// measure the server, not fmt.Sprintf. The binary table drives the
	// same mix through keys full of NULs, CRLFs and high bytes —
	// protocol framing, store hashing and WAL encoding must all be
	// length-prefixed, never delimiter-based, for this to survive.
	keys := make([]string, keyRange)
	for i := range keys {
		if l.BinKeys {
			keys[i] = binKey(i)
		} else {
			keys[i] = fmt.Sprintf("key:%06d", i)
		}
	}
	c, err := Dial(addr)
	if err != nil {
		return "", err
	}
	defer c.Close()
	accounts := accountKeys()
	mset := []string{"MSET"}
	for _, a := range accounts {
		mset = append(mset, a, strconv.Itoa(initialBalance))
	}
	if _, err := c.Must(mset...); err != nil {
		return "", err
	}
	// Typed conservation ledger: one shared hash of counter fields,
	// moved between by MULTI/HINCRBY/HINCRBY/EXEC blocks exactly like
	// the string accounts — the same atomicity contract, one value kind
	// deeper.
	hset := []string{"HSET", ledgerKey}
	for i := 0; i < transferAccounts; i++ {
		hset = append(hset, "h:"+strconv.Itoa(i), strconv.Itoa(initialBalance))
	}
	if _, err := c.Must(hset...); err != nil {
		return "", err
	}

	var cnt counters
	var wg sync.WaitGroup
	errs := make([]error, l.Clients)
	lats := make([]opLats, l.Clients)
	start := time.Now()
	for g := 0; g < l.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = driveClient(addr, g, l, dist, keys, accounts, &cnt, &lats[g])
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	var lat opLats
	for g := range lats {
		lat.merge(&lats[g])
	}
	audit, err := Audit(c)
	if err != nil {
		return "", err
	}
	total := int64(l.Clients) * int64(l.Ops)
	return fmt.Sprintf(
		"drive: %d ops over %d clients in %v (%.0f ops/sec; keys=%s)\n"+
			"  gets=%d sets=%d incrs=%d dels=%d mgets=%d expires=%d transfers=%d\n"+
			"  typed: hincrs=%d pushes=%d pops=%d zadds=%d\n  %s%s",
		total, l.Clients, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), dist.Name(),
		cnt.gets.Load(), cnt.sets.Load(), cnt.incrs.Load(), cnt.dels.Load(),
		cnt.mgets.Load(), cnt.expires.Load(), cnt.transfers.Load(),
		cnt.hincrs.Load(), cnt.pushes.Load(), cnt.pops.Load(), cnt.zadds.Load(),
		audit, lat.report()), nil
}

// accountKeys names the transfer accounts.
func accountKeys() []string {
	keys := make([]string, transferAccounts)
	for i := range keys {
		keys[i] = "acct:" + strconv.Itoa(i)
	}
	return keys
}

// binKey builds a binary-hostile key: every byte class a text-based
// framing would choke on, plus the index so keys stay distinct.
func binKey(i int) string {
	return string([]byte{
		0x00, 0xff, '\r', '\n', 0x80, 'k',
		byte(i >> 16), byte(i >> 8), byte(i),
	})
}

// driveClient is one connection's closed loop: a transfer with
// probability transferShare, otherwise a weighted singleton command on
// a distribution-drawn key. Every op's round-trip lands in lat.
func driveClient(addr string, g int, l Load, dist workload.KeyDist, keys, accounts []string, cnt *counters, lat *opLats) error {
	c, err := Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	rng := rand.New(rand.NewPCG(loadSeed+uint64(g)+1, uint64(g)*0x9e37+7))
	typed := typedState{g: g, binKeys: l.BinKeys}
	// Reset this client's private containers: a durable server may carry
	// residue from an earlier run against the same directory, and the
	// FIFO/score verifications assume a known start.
	if _, err := c.Must("DEL", "list:"+strconv.Itoa(g), "zset:"+strconv.Itoa(g)); err != nil {
		return err
	}
	for i := 0; i < l.Ops; i++ {
		if rng.Float64() < transferShare {
			t0 := time.Now()
			if err := doTransfer(c, rng, accounts); err != nil {
				return err
			}
			lat.transfer.Observe(time.Since(t0))
			cnt.transfers.Add(1)
			continue
		}
		if rng.Float64() < 0.4 {
			t0 := time.Now()
			if err := typed.step(c, rng, cnt); err != nil {
				return err
			}
			lat.typed.Observe(time.Since(t0))
			continue
		}
		key := keys[dist.Sample(rng)]
		t0 := time.Now()
		switch rng.Int64N(10) {
		case 0, 1, 2: // 30% SET
			if _, err := c.Must("SET", key, strconv.Itoa(i)); err != nil {
				return err
			}
			lat.set.Observe(time.Since(t0))
			cnt.sets.Add(1)
		case 3: // 10% INCR on a dedicated integer namespace
			if _, err := c.Must("INCR", "ctr:"+key); err != nil {
				return err
			}
			lat.incr.Observe(time.Since(t0))
			cnt.incrs.Add(1)
		case 4: // 10% DEL
			if _, err := c.Must("DEL", key); err != nil {
				return err
			}
			lat.del.Observe(time.Since(t0))
			cnt.dels.Add(1)
		case 5: // 10% MGET of a small neighbourhood
			k2 := keys[dist.Sample(rng)]
			k3 := keys[dist.Sample(rng)]
			if _, err := c.Must("MGET", key, k2, k3); err != nil {
				return err
			}
			lat.mget.Observe(time.Since(t0))
			cnt.mgets.Add(1)
		case 6: // 10% short-TTL SET (exercises expiry under load)
			if _, err := c.Must("SET", "tmp:"+key, "x", "PX", "5"); err != nil {
				return err
			}
			lat.expire.Observe(time.Since(t0))
			cnt.expires.Add(1)
		default: // 30% GET
			if _, err := c.Must("GET", key); err != nil {
				return err
			}
			lat.get.Observe(time.Since(t0))
			cnt.gets.Add(1)
		}
	}
	return nil
}

// typedState is one client's typed-workload bookkeeping: a private
// FIFO list and a private sorted set it can verify exactly (no other
// client touches them), plus its share of the contended ledger hash.
// Both private structures deliberately leave residue behind — pushed
// elements never popped, members never removed — so a durable run's
// recovery covers every container kind, not just strings.
type typedState struct {
	g        int
	binKeys  bool
	nextPush int // next sequence number to RPUSH
	nextPop  int // next sequence number LPOP must return
	zseq     int // next zset member index
}

// element formats a list element or zset member: sequence number
// prefixed, binary-hostile in a BinKeys run (the container chains and
// WAL field/value encoding must be length-prefixed too, not just the
// key path). Audit reads the sequence number back from the decimal
// tail.
func (ts *typedState) element(seq int) string {
	if ts.binKeys {
		return string([]byte{0x00, '\r', 0xfe, 'e'}) + strconv.Itoa(seq)
	}
	return "e:" + strconv.Itoa(seq)
}

// step runs one typed operation: a hash-ledger transfer (contended,
// conservation-audited at the end), a FIFO push/pop round on the
// client's private list (order-verified inline), or a zset
// add/score round (score round-trip verified inline).
func (ts *typedState) step(c *Client, rng *rand.Rand, cnt *counters) error {
	listKey := "list:" + strconv.Itoa(ts.g)
	zsetKey := "zset:" + strconv.Itoa(ts.g)
	switch rng.Int64N(4) {
	case 0: // contended hash-ledger transfer
		from := "h:" + strconv.Itoa(int(rng.Int64N(transferAccounts)))
		to := "h:" + strconv.Itoa(int(rng.Int64N(transferAccounts)))
		amount := strconv.FormatInt(rng.Int64N(20)+1, 10)
		if err := transfer(c, "HINCRBY", []string{ledgerKey, from}, []string{ledgerKey, to}, amount); err != nil {
			return err
		}
		cnt.hincrs.Add(2)
	case 1: // FIFO push
		v, err := c.Must("RPUSH", listKey, ts.element(ts.nextPush))
		if err != nil {
			return err
		}
		if want := int64(ts.nextPush - ts.nextPop + 1); v.Int != want {
			return fmt.Errorf("typed: RPUSH %s returned len %d, want %d", listKey, v.Int, want)
		}
		ts.nextPush++
		cnt.pushes.Add(1)
	case 2: // FIFO pop: strict order on the private list
		if ts.nextPop == ts.nextPush {
			return nil // nothing outstanding; keep the loop closed
		}
		v, err := c.Must("LPOP", listKey)
		if err != nil {
			return err
		}
		if want := ts.element(ts.nextPop); v.Null || v.Str != want {
			return fmt.Errorf("typed: LPOP %s = %q (null=%v), want %q (FIFO order broken)",
				listKey, v.Str, v.Null, want)
		}
		ts.nextPop++
		cnt.pops.Add(1)
	default: // zset add + score round-trip
		member := ts.element(ts.zseq)
		ts.zseq++
		score := strconv.FormatInt(rng.Int64N(1000), 10)
		if _, err := c.Must("ZADD", zsetKey, score, member); err != nil {
			return err
		}
		v, err := c.Must("ZSCORE", zsetKey, member)
		if err != nil {
			return err
		}
		if v.Null || v.Str != score {
			return fmt.Errorf("typed: ZSCORE %s %s = %q (null=%v), want %q",
				zsetKey, member, v.Str, v.Null, score)
		}
		cnt.zadds.Add(1)
	}
	return nil
}

// doTransfer moves a random amount between two random accounts.
func doTransfer(c *Client, rng *rand.Rand, accounts []string) error {
	from := accounts[rng.Int64N(int64(len(accounts)))]
	to := accounts[rng.Int64N(int64(len(accounts)))]
	amount := strconv.FormatInt(rng.Int64N(20)+1, 10)
	return transfer(c, "INCRBY", []string{from}, []string{to}, amount)
}

// transfer runs one MULTI / <incr> from -amount / <incr> to amount /
// EXEC block and checks its replies: QUEUED twice, then an array of
// the two new balances.
func transfer(c *Client, incr string, from, to []string, amount string) error {
	if _, err := c.Must("MULTI"); err != nil {
		return err
	}
	for _, args := range [][]string{append(from, "-"+amount), append(to, amount)} {
		v, err := c.Must(append([]string{incr}, args...)...)
		if err != nil {
			return err
		}
		if v.Str != "QUEUED" {
			return fmt.Errorf("transfer: %s reply %+v, want QUEUED", incr, v)
		}
	}
	v, err := c.Must("EXEC")
	if err != nil {
		return err
	}
	if len(v.Elems) != 2 || v.Elems[0].Kind != ':' || v.Elems[1].Kind != ':' {
		return fmt.Errorf("transfer: EXEC reply %+v, want two integers", v)
	}
	return nil
}
