package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/resp"
	"repro/internal/workload"
)

// loadConfig parameterizes the closed-loop load generator.
type loadConfig struct {
	clients int
	ops     int
	binKeys bool
	typed   bool
}

// The load generator's fixed workload. -audit, in another process,
// checks conservation over the same transferAccounts.
const (
	keyRange         = 512    // key universe size
	keyDist          = "zipf" // key distribution (see workload.NewKeyDist)
	transferAccounts = 8      // conservation-checked transfer accounts
	transferShare    = 0.2    // fraction of ops that are MULTI/EXEC transfers
	loadSeed         = 0x5eed // workload seed
)

// client is one load-generator connection.
type client struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *client {
	return &client{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}
}

// do sends one command as an array frame and reads one reply.
func (c *client) do(args ...string) (resp.Value, error) {
	c.w.Array(len(args))
	for _, a := range args {
		c.w.Bulk(a)
	}
	if err := c.w.Flush(); err != nil {
		return resp.Value{}, err
	}
	return c.r.ReadReply()
}

// must runs do and turns error replies into errors.
func (c *client) must(args ...string) (resp.Value, error) {
	v, err := c.do(args...)
	if err != nil {
		return v, fmt.Errorf("%s: %w", fields(args), err)
	}
	if v.IsError() {
		return v, fmt.Errorf("%s: server error %q", fields(args), v.Str)
	}
	return v, nil
}

// counters aggregates what the generator actually did.
type counters struct {
	gets, sets, incrs, dels, mgets, transfers, expires atomic.Int64
	hincrs, pushes, pops, zadds                        atomic.Int64
}

// opLats is one client's client-side latency record: wall time from
// the first byte of the request to the last byte of the reply, one
// histogram per op kind. Each client owns its own (histograms are not
// concurrency-safe); runLoadgen merges them after the run. A transfer
// times the whole MULTI..EXEC conversation — that is the unit a
// caller waits for.
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

// runLoadgen drives addr with cfg.clients closed-loop connections and
// verifies two invariants on the way out: every transfer account
// survives with the account total conserved (the MULTI/EXEC atomicity
// contract over real sockets), and no command ever yields an
// unexpected error reply.
func runLoadgen(addr string, cfg loadConfig) (string, error) {
	if cfg.clients < 1 || cfg.ops < 1 {
		return "", fmt.Errorf("loadgen: need positive clients and ops")
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
		if cfg.binKeys {
			keys[i] = binKey(i)
		} else {
			keys[i] = fmt.Sprintf("key:%06d", i)
		}
	}
	const initial = 1000
	accounts := make([]string, transferAccounts)
	seedConn, err := dial(addr)
	if err != nil {
		return "", err
	}
	msetArgs := []string{"MSET"}
	for i := range accounts {
		accounts[i] = fmt.Sprintf("acct:%d", i)
		msetArgs = append(msetArgs, accounts[i], strconv.Itoa(initial))
	}
	if _, err := seedConn.must(msetArgs...); err != nil {
		seedConn.conn.Close()
		return "", err
	}
	if cfg.typed {
		// Typed conservation ledger: one shared hash of counter fields,
		// moved between by MULTI/HINCRBY/HINCRBY/EXEC blocks exactly like
		// the string accounts — the same atomicity contract, one value
		// kind deeper.
		args := []string{"HSET", typedStatsKey}
		for i := 0; i < transferAccounts; i++ {
			args = append(args, "h:"+strconv.Itoa(i), strconv.Itoa(initial))
		}
		if _, err := seedConn.must(args...); err != nil {
			seedConn.conn.Close()
			return "", err
		}
	}
	seedConn.conn.Close()

	var cnt counters
	var wg sync.WaitGroup
	errs := make([]error, cfg.clients)
	lats := make([]opLats, cfg.clients)
	start := time.Now()
	for g := 0; g < cfg.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = driveClient(addr, g, cfg, dist, keys, accounts, &cnt, &lats[g])
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

	// Conservation audit: one consistent MGET across the accounts.
	audit, err := dial(addr)
	if err != nil {
		return "", err
	}
	defer audit.conn.Close()
	v, err := audit.must(append([]string{"MGET"}, accounts...)...)
	if err != nil {
		return "", err
	}
	sum := 0
	for i, e := range v.Elems {
		if e.Null {
			return "", fmt.Errorf("loadgen: account %s vanished", accounts[i])
		}
		n, err := strconv.Atoi(e.Str)
		if err != nil {
			return "", fmt.Errorf("loadgen: account %s holds %q", accounts[i], e.Str)
		}
		sum += n
	}
	if want := transferAccounts * initial; sum != want {
		return "", fmt.Errorf("loadgen: conservation broken: accounts sum to %d, want %d", sum, want)
	}
	typedNote := ""
	if cfg.typed {
		if err := auditTypedLedger(audit, transferAccounts*initial); err != nil {
			return "", err
		}
		typedNote = fmt.Sprintf("\n  typed: hincrs=%d pushes=%d pops=%d zadds=%d — hash ledger conserved",
			cnt.hincrs.Load(), cnt.pushes.Load(), cnt.pops.Load(), cnt.zadds.Load())
	}

	total := int64(cfg.clients) * int64(cfg.ops)
	return fmt.Sprintf(
		"loadgen: %d ops over %d clients in %v (%.0f ops/sec; keys=%s)\n"+
			"  gets=%d sets=%d incrs=%d dels=%d mgets=%d expires=%d transfers=%d — accounts conserved%s%s",
		total, cfg.clients, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), dist.Name(),
		cnt.gets.Load(), cnt.sets.Load(), cnt.incrs.Load(), cnt.dels.Load(),
		cnt.mgets.Load(), cnt.expires.Load(), cnt.transfers.Load(), typedNote,
		lat.report()), nil
}

// typedStatsKey is the shared hash the typed workload's HINCRBY
// transfer blocks move value within.
const typedStatsKey = "stats:hash"

// auditTypedLedger checks the typed conservation invariant: the
// shared hash's counter fields sum to their seeded total, whatever
// interleaving the HINCRBY transfer blocks committed in.
func auditTypedLedger(c *client, want int) error {
	v, err := c.must("HGETALL", typedStatsKey)
	if err != nil {
		return err
	}
	if len(v.Elems)%2 != 0 {
		return fmt.Errorf("loadgen: HGETALL %s returned %d elems", typedStatsKey, len(v.Elems))
	}
	sum := 0
	for i := 0; i < len(v.Elems); i += 2 {
		n, err := strconv.Atoi(v.Elems[i+1].Str)
		if err != nil {
			return fmt.Errorf("loadgen: field %s holds %q", v.Elems[i].Str, v.Elems[i+1].Str)
		}
		sum += n
	}
	if sum != want {
		return fmt.Errorf("loadgen: typed conservation broken: %s sums to %d, want %d", typedStatsKey, sum, want)
	}
	return nil
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
func driveClient(addr string, g int, cfg loadConfig, dist workload.KeyDist, keys, accounts []string, cnt *counters, lat *opLats) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.conn.Close()
	rng := rand.New(rand.NewPCG(loadSeed+uint64(g)+1, uint64(g)*0x9e37+7))
	typed := typedState{g: g}
	if cfg.typed {
		// Reset this client's private containers: a durable server may
		// carry residue from an earlier run against the same directory,
		// and the FIFO/score verifications assume a known start.
		if _, err := c.must("DEL", "list:"+strconv.Itoa(g), "zset:"+strconv.Itoa(g)); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.ops; i++ {
		if rng.Float64() < transferShare {
			t0 := time.Now()
			if err := doTransfer(c, rng, accounts); err != nil {
				return err
			}
			lat.transfer.Observe(time.Since(t0))
			cnt.transfers.Add(1)
			continue
		}
		if cfg.typed && rng.Float64() < 0.4 {
			t0 := time.Now()
			if err := typed.step(c, rng, cfg, cnt); err != nil {
				return err
			}
			lat.typed.Observe(time.Since(t0))
			continue
		}
		key := keys[dist.Sample(rng)]
		t0 := time.Now()
		switch rng.Int64N(10) {
		case 0, 1, 2: // 30% SET
			if _, err := c.must("SET", key, strconv.Itoa(i)); err != nil {
				return err
			}
			lat.set.Observe(time.Since(t0))
			cnt.sets.Add(1)
		case 3: // 10% INCR on a dedicated integer namespace
			if _, err := c.must("INCR", "ctr:"+key); err != nil {
				return err
			}
			lat.incr.Observe(time.Since(t0))
			cnt.incrs.Add(1)
		case 4: // 10% DEL
			if _, err := c.must("DEL", key); err != nil {
				return err
			}
			lat.del.Observe(time.Since(t0))
			cnt.dels.Add(1)
		case 5: // 10% MGET of a small neighbourhood
			k2 := keys[dist.Sample(rng)]
			k3 := keys[dist.Sample(rng)]
			if _, err := c.must("MGET", key, k2, k3); err != nil {
				return err
			}
			lat.mget.Observe(time.Since(t0))
			cnt.mgets.Add(1)
		case 6: // 10% short-TTL SET (exercises expiry under load)
			if _, err := c.must("SET", "tmp:"+key, "x", "PX", "5"); err != nil {
				return err
			}
			lat.expire.Observe(time.Since(t0))
			cnt.expires.Add(1)
		default: // 30% GET
			if _, err := c.must("GET", key); err != nil {
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
// elements never popped, members never removed — so a durable smoke's
// restore comparison covers every container kind, not just strings.
type typedState struct {
	g        int
	nextPush int // next sequence number to RPUSH
	nextPop  int // next sequence number LPOP must return
	zseq     int // next zset member index
}

// element formats a list element or zset member: sequence number
// prefixed, binary-hostile when the run is a -binkeys sweep (the
// container chains and WAL field/value encoding must be
// length-prefixed too, not just the key path).
func (ts *typedState) element(seq int, binKeys bool) string {
	if binKeys {
		return string([]byte{0x00, '\r', 0xfe, 'e'}) + strconv.Itoa(seq)
	}
	return "e:" + strconv.Itoa(seq)
}

// step runs one typed operation: a hash-ledger transfer (contended,
// conservation-audited at the end), a FIFO push/pop round on the
// client's private list (order-verified inline), or a zset
// add/score/range round (score round-trip verified inline).
func (ts *typedState) step(c *client, rng *rand.Rand, cfg loadConfig, cnt *counters) error {
	listKey := "list:" + strconv.Itoa(ts.g)
	zsetKey := "zset:" + strconv.Itoa(ts.g)
	switch rng.Int64N(4) {
	case 0: // contended hash-ledger transfer
		from := "h:" + strconv.Itoa(int(rng.Int64N(transferAccounts)))
		to := "h:" + strconv.Itoa(int(rng.Int64N(transferAccounts)))
		amount := strconv.FormatInt(rng.Int64N(20)+1, 10)
		for _, cmd := range [][]string{
			{"MULTI"},
			{"HINCRBY", typedStatsKey, from, "-" + amount},
			{"HINCRBY", typedStatsKey, to, amount},
		} {
			if _, err := c.must(cmd...); err != nil {
				return err
			}
		}
		v, err := c.must("EXEC")
		if err != nil {
			return err
		}
		if len(v.Elems) != 2 || v.Elems[0].Kind != ':' || v.Elems[1].Kind != ':' {
			return fmt.Errorf("typed transfer: EXEC reply %+v, want two integers", v)
		}
		cnt.hincrs.Add(2)
	case 1: // FIFO push
		v, err := c.must("RPUSH", listKey, ts.element(ts.nextPush, cfg.binKeys))
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
		v, err := c.must("LPOP", listKey)
		if err != nil {
			return err
		}
		if want := ts.element(ts.nextPop, cfg.binKeys); v.Null || v.Str != want {
			return fmt.Errorf("typed: LPOP %s = %q (null=%v), want %q (FIFO order broken)",
				listKey, v.Str, v.Null, want)
		}
		ts.nextPop++
		cnt.pops.Add(1)
	default: // zset add + score round-trip
		member := ts.element(ts.zseq, cfg.binKeys)
		ts.zseq++
		score := strconv.FormatInt(rng.Int64N(1000), 10)
		if _, err := c.must("ZADD", zsetKey, score, member); err != nil {
			return err
		}
		v, err := c.must("ZSCORE", zsetKey, member)
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

// doTransfer runs one MULTI/INCRBY/INCRBY/EXEC block and sanity-checks
// the replies: QUEUED twice, then an array of the two new balances.
func doTransfer(c *client, rng *rand.Rand, accounts []string) error {
	from := accounts[rng.Int64N(int64(len(accounts)))]
	to := accounts[rng.Int64N(int64(len(accounts)))]
	amount := strconv.FormatInt(rng.Int64N(20)+1, 10)
	if _, err := c.must("MULTI"); err != nil {
		return err
	}
	if v, err := c.must("INCRBY", from, "-"+amount); err != nil {
		return err
	} else if v.Str != "QUEUED" {
		return fmt.Errorf("transfer: INCRBY reply %+v, want QUEUED", v)
	}
	if v, err := c.must("INCRBY", to, amount); err != nil {
		return err
	} else if v.Str != "QUEUED" {
		return fmt.Errorf("transfer: INCRBY reply %+v, want QUEUED", v)
	}
	v, err := c.must("EXEC")
	if err != nil {
		return err
	}
	if len(v.Elems) != 2 || v.Elems[0].Kind != ':' || v.Elems[1].Kind != ':' {
		return fmt.Errorf("transfer: EXEC reply %+v, want two integers", v)
	}
	return nil
}
