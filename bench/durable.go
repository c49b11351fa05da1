package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"time"
)

// This file is wire-durable's ending: the server has just been killed
// with SIGKILL while requests were in flight; it is restarted on the
// same directory, timed until it answers PING, and every key is read
// back and compared with the client-side journal of acknowledged
// writes.
//
// kill -9 leaves the operating system's page cache intact, so bytes
// written but not yet fsynced survive too: this checks the log
// protocol (an acknowledged write is in the log, replay applies it in
// order), not the storage device.

// recovery is what the restart cost.
type recovery struct {
	toPing time.Duration // exec to first PONG
	ops    int64         // ops the server says it replayed: snapshot + log
}

// usPerOp is recovery time per replayed op, so that a server that
// acknowledged — and therefore logged — more is not charged for it.
func (r recovery) usPerOp() float64 {
	return float64(r.toPing.Microseconds()) / float64(max(r.ops, 1))
}

// keyState is one key's content; absent keys have present == false.
type keyState struct {
	val     string
	present bool
}

// journal is the set of states each key may legally be in after the
// crash: the state after this connection's last acknowledged unit, or
// the state after any later write of the unit that was in flight.
type journal struct {
	acked   map[string]keyState   // by key name; untouched keys are not here
	allowed map[string][]keyState // in-flight alternatives
}

// applyCmd folds one command into the journal's idea of its key.
func applyCmd(st *stream, ks keyspace, c *command, cur func(string) keyState) (key string, next keyState, write bool) {
	switch c.op {
	case opSet:
		return ks.key('s', c.key), keyState{string(st.buf[c.voff : c.voff+c.vlen]), true}, true
	case opDel:
		return ks.key('s', c.key), keyState{}, true
	case opIncr:
		key = ks.key('c', c.key)
		n := int64(0)
		if s := cur(key); s.present {
			n, _ = strconv.ParseInt(s.val, 10, 64) // the journal only ever stores integers here
		}
		return key, keyState{strconv.FormatInt(n+1, 10), true}, true
	}
	return "", keyState{}, false
}

// buildJournal replays the acknowledged prefix of every connection's
// stream, then the one unit each connection had in flight.
func buildJournal(seed uint64, workers []*closedWorker, streams []*stream) journal {
	ks := newKeyspace(seed)
	j := journal{acked: make(map[string]keyState), allowed: make(map[string][]keyState)}
	counterStart := keyState{"0", true}
	for w, worker := range workers {
		st := streams[w]
		cur := func(key string) keyState {
			if s, ok := j.acked[key]; ok {
				return s
			}
			return counterStart // only INCR asks, and only about preloaded counters
		}
		for u := int64(0); u < worker.acked; u++ {
			unit := st.units[u%int64(len(st.units))]
			for k := unit.c0; k < unit.c1; k++ {
				if key, next, ok := applyCmd(st, ks, &st.cmds[k], cur); ok {
					j.acked[key] = next
				}
			}
		}
		// The in-flight unit: each of its writes, applied on top of what
		// came before it, is a state the key may have reached.
		inflight := make(map[string]keyState)
		curInflight := func(key string) keyState {
			if s, ok := inflight[key]; ok {
				return s
			}
			return cur(key)
		}
		unit := st.units[worker.acked%int64(len(st.units))]
		for k := unit.c0; k < unit.c1; k++ {
			if key, next, ok := applyCmd(st, ks, &st.cmds[k], curInflight); ok {
				inflight[key] = next
				j.allowed[key] = append(j.allowed[key], next)
			}
		}
	}
	return j
}

// recoverAndCheck restarts the killed durable server and audits it.
func recoverAndCheck(cfg config, sp spec, ws *wireServer, workers []*closedWorker, streams []*stream, rep *report) (recovery, error) {
	var rec recovery
	t0 := time.Now()
	srv, err := startServer(cfg.serverBin, serverFlags(cfg, sp, ws.dir)...)
	if err != nil {
		return rec, fmt.Errorf("restart after kill -9: %w", err)
	}
	defer srv.kill()
	a, err := dialAdmin(srv.addr)
	if err != nil {
		return rec, err
	}
	defer a.Close()
	if _, err := a.do("PING"); err != nil {
		return rec, err
	}
	rec.toPing, rec.ops = time.Since(t0), srv.recovered()

	j := buildJournal(cfg.seed, workers, streams)
	ks := newKeyspace(cfg.seed)
	// Untouched keys must still hold what preload wrote.
	preVals := preloadValues(sp, cfg.seed)
	expect := func(key string, preloaded keyState) keyState {
		if s, ok := j.acked[key]; ok {
			return s
		}
		return preloaded
	}
	var lost int
	check := func(keys []string, want []keyState) error {
		v, err := a.do(append([]string{"MGET"}, keys...)...)
		if err != nil {
			return err
		}
		if len(v.Elems) != len(keys) {
			return fmt.Errorf("MGET of %d keys returned %d values", len(keys), len(v.Elems))
		}
		for i, e := range v.Elems {
			rep.attempted++
			got := keyState{e.Str, !e.Null}
			ok := got == want[i]
			for _, alt := range j.allowed[keys[i]] {
				ok = ok || got == alt
			}
			if !ok {
				rep.failed++
				if lost++; lost <= 5 {
					rep.problemf("after kill -9, key %s holds %+v; last acknowledged write left %+v (in-flight alternatives: %d)",
						keys[i], got, want[i], len(j.allowed[keys[i]]))
				}
			}
		}
		return nil
	}
	keys, want := make([]string, 0, preloadBatch), make([]keyState, 0, preloadBatch)
	add := func(key string, preloaded keyState) error {
		keys, want = append(keys, key), append(want, expect(key, preloaded))
		if len(keys) < preloadBatch {
			return nil
		}
		err := check(keys, want)
		keys, want = keys[:0], want[:0]
		return err
	}
	for i := 0; i < sp.strKeys; i++ {
		if err := add(ks.key('s', int32(i)), keyState{preVals[i], true}); err != nil {
			return rec, err
		}
	}
	for i := 0; i < sp.counters; i++ {
		if err := add(ks.key('c', int32(i)), keyState{"0", true}); err != nil {
			return rec, err
		}
	}
	if len(keys) > 0 {
		if err := check(keys, want); err != nil {
			return rec, err
		}
	}
	if lost > 0 {
		rep.problemf("%d keys lost an acknowledged write across kill -9", lost)
	}
	return rec, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		// A snapshot or segment may be renamed or reaped between the
		// directory read and the stat; the rest is still worth counting.
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
