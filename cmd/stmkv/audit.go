package main

// The audit mode is the crash-restart smoke's measuring instrument
// (scripts/crash_smoke.sh): a one-shot client that checks the
// invariants a durable restart must preserve — account conservation
// across kill -9, and TTL semantics anchored to absolute deadlines —
// from outside the process, over the real wire.

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"time"
)

// dialRetry dials addr until it accepts or the deadline passes — a
// just-restarted server may still be replaying its log.
func dialRetry(addr string, wait time.Duration) (*client, error) {
	deadline := time.Now().Add(wait)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return newClient(conn), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("audit: %s not reachable after %v: %w", addr, wait, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkTypedProbes verifies a previous "set"'s container probes after
// a restart: the list in push order, the hash field-for-field, the
// zset in score order with exact scores, and TYPE naming each kind —
// the wire-level version of the restore-equality gate, one key per
// container kind.
func checkTypedProbes(c *client) error {
	for key, want := range map[string]string{
		"probe:list": "list", "probe:hash": "hash", "probe:zset": "zset",
	} {
		v, err := c.must("TYPE", key)
		if err != nil {
			return err
		}
		if v.Str != want {
			return fmt.Errorf("audit: TYPE %s = %q, want %q (container kind lost across restart)", key, v.Str, want)
		}
	}
	v, err := c.must("LRANGE", "probe:list", "0", "-1")
	if err != nil {
		return err
	}
	if len(v.Elems) != 3 || v.Elems[0].Str != "a" || v.Elems[1].Str != "b" || v.Elems[2].Str != "c" {
		return fmt.Errorf("audit: probe:list = %+v, want [a b c] (list order lost across restart)", v.Elems)
	}
	v, err = c.must("HGETALL", "probe:hash")
	if err != nil {
		return err
	}
	fields := map[string]string{}
	for i := 0; i+1 < len(v.Elems); i += 2 {
		fields[v.Elems[i].Str] = v.Elems[i+1].Str
	}
	if len(fields) != 2 || fields["f1"] != "v1" || fields["f2"] != "v2" {
		return fmt.Errorf("audit: probe:hash = %v, want f1=v1 f2=v2 (hash fields lost across restart)", fields)
	}
	v, err = c.must("ZRANGE", "probe:zset", "0", "-1", "WITHSCORES")
	if err != nil {
		return err
	}
	if len(v.Elems) != 4 || v.Elems[0].Str != "alpha" || v.Elems[1].Str != "1.5" ||
		v.Elems[2].Str != "beta" || v.Elems[3].Str != "2.5" {
		return fmt.Errorf("audit: probe:zset = %+v, want alpha=1.5 beta=2.5 in score order", v.Elems)
	}
	if v, err = c.must("ZCARD", "probe:zset"); err != nil {
		return err
	} else if v.Int != 2 {
		return fmt.Errorf("audit: ZCARD probe:zset = %d, want 2", v.Int)
	}
	return nil
}

// checkTypedLists verifies the private lists a -typed loadgen leaves
// behind (list:<client>): each client pushed consecutive sequence
// numbers at the back and popped from the front, so whatever prefix of
// its history survived a crash, the list is one ascending run without a
// gap or a repeat. A push replayed twice, or one a snapshot both holds
// and leaves in the log, shows as a repeat; a lost one as a gap. Absent
// lists (no typed run, or everything popped) are skipped.
func checkTypedLists(c *client) (checked int, err error) {
	for g := 0; g < 64; g++ {
		key := "list:" + strconv.Itoa(g)
		v, err := c.must("LRANGE", key, "0", "-1")
		if err != nil {
			return checked, err
		}
		prev := -1
		for i, e := range v.Elems {
			// The sequence number is the element's decimal tail; what
			// precedes it depends on -binkeys.
			digits := len(e.Str)
			for digits > 0 && e.Str[digits-1] >= '0' && e.Str[digits-1] <= '9' {
				digits--
			}
			seq, err := strconv.Atoi(e.Str[digits:])
			if err != nil {
				return checked, fmt.Errorf("audit: %s[%d] = %q carries no sequence number", key, i, e.Str)
			}
			if i > 0 && seq != prev+1 {
				return checked, fmt.Errorf("audit: %s[%d] is element %d after element %d (FIFO run broken across restart)", key, i, seq, prev)
			}
			prev = seq
		}
		if len(v.Elems) > 0 {
			checked++
		}
	}
	return checked, nil
}

// runAudit connects to addr and verifies the durable invariants.
// Modes: "sum" checks account conservation; "set" additionally plants
// two TTL probes (one long-lived, one already doomed) and one key per
// container kind (list, hash, zset); "check" additionally verifies a
// previous "set"'s probes — the long TTL must survive with its
// deadline intact, the doomed one must be gone even though no sweep
// may have run before the crash, and every container probe must come
// back element-for-element with its kind. Every mode also checks the
// typed loadgen's residue when there is any: the hash ledger's sum and
// the FIFO order of the private lists. With save, a SAVE is issued
// at the end so the next restart boots from a snapshot.
func runAudit(addr, mode string, save bool) error {
	if mode != "sum" && mode != "set" && mode != "check" {
		return fmt.Errorf("audit: unknown mode %q (want sum, set or check)", mode)
	}
	c, err := dialRetry(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.conn.Close()

	switch mode {
	case "set":
		if _, err := c.must("SET", "probe:keep", "kept", "EX", "1000"); err != nil {
			return err
		}
		if _, err := c.must("SET", "probe:gone", "soon", "PX", "80"); err != nil {
			return err
		}
		// Typed probes: one key of every container kind, planted before
		// the crash, verified element-for-element after the restart.
		if _, err := c.must("DEL", "probe:list", "probe:hash", "probe:zset"); err != nil {
			return err
		}
		if _, err := c.must("RPUSH", "probe:list", "a", "b", "c"); err != nil {
			return err
		}
		if _, err := c.must("HSET", "probe:hash", "f1", "v1", "f2", "v2"); err != nil {
			return err
		}
		if _, err := c.must("ZADD", "probe:zset", "1.5", "alpha", "2.5", "beta"); err != nil {
			return err
		}
	case "check":
		v, err := c.must("GET", "probe:keep")
		if err != nil {
			return err
		}
		if v.Null || v.Str != "kept" {
			return fmt.Errorf("audit: probe:keep = %q (null=%v), want \"kept\" (TTL key lost across restart)", v.Str, v.Null)
		}
		ttl, err := c.must("TTL", "probe:keep")
		if err != nil {
			return err
		}
		if ttl.Int <= 0 || ttl.Int > 1000 {
			return fmt.Errorf("audit: probe:keep TTL %d, want (0, 1000] (deadline not preserved)", ttl.Int)
		}
		gone, err := c.must("GET", "probe:gone")
		if err != nil {
			return err
		}
		if !gone.Null {
			return fmt.Errorf("audit: probe:gone resurrected as %q (expiry not honoured across restart)", gone.Str)
		}
		if err := checkTypedProbes(c); err != nil {
			return err
		}
	}

	// Conservation: one consistent MGET across the transfer accounts.
	args := []string{"MGET"}
	for i := 0; i < transferAccounts; i++ {
		args = append(args, fmt.Sprintf("acct:%d", i))
	}
	v, err := c.must(args...)
	if err != nil {
		return err
	}
	sum := 0
	for i, e := range v.Elems {
		if e.Null {
			return fmt.Errorf("audit: account acct:%d vanished", i)
		}
		n, err := strconv.Atoi(e.Str)
		if err != nil {
			return fmt.Errorf("audit: account acct:%d holds %q", i, e.Str)
		}
		sum += n
	}
	if want := transferAccounts * 1000; sum != want {
		return fmt.Errorf("audit: conservation broken: accounts sum to %d, want %d", sum, want)
	}
	// Typed-ledger conservation, when a -typed loadgen ran against this
	// store: HINCRBY transfer blocks are all-or-nothing too, so the
	// shared hash must sum to its seeded total across any crash. An
	// absent ledger (no typed run) is skipped, not an error.
	if v, err := c.must("HGETALL", typedStatsKey); err != nil {
		return err
	} else if len(v.Elems) > 0 {
		hsum := 0
		for i := 0; i+1 < len(v.Elems); i += 2 {
			n, err := strconv.Atoi(v.Elems[i+1].Str)
			if err != nil {
				return fmt.Errorf("audit: ledger field %s holds %q", v.Elems[i].Str, v.Elems[i+1].Str)
			}
			hsum += n
		}
		if want := transferAccounts * 1000; hsum != want {
			return fmt.Errorf("audit: typed ledger broken: %s sums to %d, want %d", typedStatsKey, hsum, want)
		}
	}
	lists, err := checkTypedLists(c)
	if err != nil {
		return err
	}
	size, err := c.must("DBSIZE")
	if err != nil {
		return err
	}
	if save {
		if _, err := c.must("SAVE"); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "audit(%s): ok — %d accounts conserved (%d), %d typed lists in FIFO order, dbsize %d, save=%v\n",
		mode, transferAccounts, sum, lists, size.Int, save)
	return nil
}
