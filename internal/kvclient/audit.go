package kvclient

import (
	"fmt"
	"strconv"

	"repro/internal/resp"
)

// Audit checks what every Drive run leaves true, however it ended:
// the transfer accounts all exist and sum to what was seeded (one
// consistent MGET), the hash ledger does too, and each client's
// private list is one ascending FIFO run. It returns a one-line
// summary.
//
// MULTI/EXEC transfers are all-or-nothing, so the sums hold at any
// instant a consistent read can see, across a kill -9 and a recovery
// included.
func Audit(c *Client) (string, error) {
	accounts := accountKeys()
	v, err := c.Must(append([]string{"MGET"}, accounts...)...)
	if err != nil {
		return "", err
	}
	if err := conserved("accounts", accounts, v.Elems); err != nil {
		return "", err
	}
	if v, err = c.Must("HGETALL", ledgerKey); err != nil {
		return "", err
	}
	if len(v.Elems) == 0 {
		return "", fmt.Errorf("audit: ledger %s vanished", ledgerKey)
	}
	var fields []string
	var vals []resp.Value
	for i := 0; i+1 < len(v.Elems); i += 2 {
		fields = append(fields, v.Elems[i].Str)
		vals = append(vals, v.Elems[i+1])
	}
	if err := conserved("ledger "+ledgerKey, fields, vals); err != nil {
		return "", err
	}
	lists, err := checkTypedLists(c)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("audit: %d accounts and the ledger conserved, %d lists in FIFO order", transferAccounts, lists), nil
}

// conserved checks that vals, read together, are all integers summing
// to transferAccounts * initialBalance; names labels them in errors.
func conserved(what string, names []string, vals []resp.Value) error {
	sum := 0
	for i, v := range vals {
		if v.Null {
			return fmt.Errorf("audit: %s: %s vanished", what, names[i])
		}
		n, err := strconv.Atoi(v.Str)
		if err != nil {
			return fmt.Errorf("audit: %s: %s holds %q", what, names[i], v.Str)
		}
		sum += n
	}
	if want := transferAccounts * initialBalance; sum != want {
		return fmt.Errorf("audit: %s conservation broken: sum %d, want %d", what, sum, want)
	}
	return nil
}

// checkTypedLists verifies the private lists a Drive leaves
// behind (list:<client>): each client pushed consecutive sequence
// numbers at the back and popped from the front, so whatever prefix of
// its history survived a crash, the list is one ascending run without a
// gap or a repeat. A push replayed twice, or one a snapshot both holds
// and leaves in the log, shows as a repeat; a lost one as a gap. Absent
// lists (a client that never ran, or everything popped) are skipped.
func checkTypedLists(c *Client) (checked int, err error) {
	for g := 0; g < maxClients; g++ {
		key := "list:" + strconv.Itoa(g)
		v, err := c.Must("LRANGE", key, "0", "-1")
		if err != nil {
			return checked, err
		}
		prev := -1
		for i, e := range v.Elems {
			// The sequence number is the element's decimal tail; what
			// precedes it depends on BinKeys.
			digits := len(e.Str)
			for digits > 0 && e.Str[digits-1] >= '0' && e.Str[digits-1] <= '9' {
				digits--
			}
			seq, err := strconv.Atoi(e.Str[digits:])
			if err != nil {
				return checked, fmt.Errorf("audit: %s[%d] = %q carries no sequence number", key, i, e.Str)
			}
			if i > 0 && seq != prev+1 {
				return checked, fmt.Errorf("audit: %s[%d] is element %d after element %d (FIFO run broken)", key, i, seq, prev)
			}
			prev = seq
		}
		if len(v.Elems) > 0 {
			checked++
		}
	}
	return checked, nil
}

// PlantProbes writes what CheckProbes verifies after a restart: two
// TTL probes, one long-lived and one already doomed, and one key of
// every container kind.
func PlantProbes(c *Client) error {
	for _, cmd := range [][]string{
		{"SET", "probe:keep", "kept", "EX", "1000"},
		{"SET", "probe:gone", "soon", "PX", "80"},
		{"DEL", "probe:list", "probe:hash", "probe:zset"},
		{"RPUSH", "probe:list", "a", "b", "c"},
		{"HSET", "probe:hash", "f1", "v1", "f2", "v2"},
		{"ZADD", "probe:zset", "1.5", "alpha", "2.5", "beta"},
	} {
		if _, err := c.Must(cmd...); err != nil {
			return err
		}
	}
	return nil
}

// CheckProbes verifies PlantProbes' keys, at least 80 ms after they
// were planted: the long TTL survives with its deadline intact, the
// doomed one is gone even though no sweep need have run before a
// crash, and every container probe comes back element for element —
// the list in push order, the hash field for field, the zset in score
// order with exact scores — with TYPE naming its kind.
func CheckProbes(c *Client) error {
	v, err := c.Must("GET", "probe:keep")
	if err != nil {
		return err
	}
	if v.Null || v.Str != "kept" {
		return fmt.Errorf("probe: probe:keep = %q (null=%v), want \"kept\" (TTL key lost)", v.Str, v.Null)
	}
	if v, err = c.Must("TTL", "probe:keep"); err != nil {
		return err
	}
	if v.Int <= 0 || v.Int > 1000 {
		return fmt.Errorf("probe: probe:keep TTL %d, want (0, 1000] (deadline not preserved)", v.Int)
	}
	if v, err = c.Must("GET", "probe:gone"); err != nil {
		return err
	}
	if !v.Null {
		return fmt.Errorf("probe: probe:gone resurrected as %q (expiry not honoured)", v.Str)
	}
	for key, want := range map[string]string{
		"probe:list": "list", "probe:hash": "hash", "probe:zset": "zset",
	} {
		if v, err = c.Must("TYPE", key); err != nil {
			return err
		}
		if v.Str != want {
			return fmt.Errorf("probe: TYPE %s = %q, want %q (container kind lost)", key, v.Str, want)
		}
	}
	if v, err = c.Must("LRANGE", "probe:list", "0", "-1"); err != nil {
		return err
	}
	if len(v.Elems) != 3 || v.Elems[0].Str != "a" || v.Elems[1].Str != "b" || v.Elems[2].Str != "c" {
		return fmt.Errorf("probe: probe:list = %+v, want [a b c] (list order lost)", v.Elems)
	}
	if v, err = c.Must("HGETALL", "probe:hash"); err != nil {
		return err
	}
	fields := map[string]string{}
	for i := 0; i+1 < len(v.Elems); i += 2 {
		fields[v.Elems[i].Str] = v.Elems[i+1].Str
	}
	if len(fields) != 2 || fields["f1"] != "v1" || fields["f2"] != "v2" {
		return fmt.Errorf("probe: probe:hash = %v, want f1=v1 f2=v2 (hash fields lost)", fields)
	}
	if v, err = c.Must("ZRANGE", "probe:zset", "0", "-1", "WITHSCORES"); err != nil {
		return err
	}
	if len(v.Elems) != 4 || v.Elems[0].Str != "alpha" || v.Elems[1].Str != "1.5" ||
		v.Elems[2].Str != "beta" || v.Elems[3].Str != "2.5" {
		return fmt.Errorf("probe: probe:zset = %+v, want alpha=1.5 beta=2.5 in score order", v.Elems)
	}
	if v, err = c.Must("ZCARD", "probe:zset"); err != nil {
		return err
	}
	if v.Int != 2 {
		return fmt.Errorf("probe: ZCARD probe:zset = %d, want 2", v.Int)
	}
	return nil
}
