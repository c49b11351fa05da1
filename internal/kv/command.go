package kv

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/resp"
	"repro/internal/stm"
)

// command is the one definition of a RESP command: everything the
// handler needs to validate, queue, run, label and account a request.
// Adding a command means adding one entry to commandTable.
type command struct {
	name string // upper-case wire name
	// Arity of the arguments after the name: min <= n <= max (max -1:
	// unbounded) and n-min a multiple of step (0 reads as 1; 2 is the
	// field/value and score/member pair forms).
	min, max, step int
	// noMulti rejects the command inside MULTI (and poisons the block):
	// it is not replayable inside a transaction.
	noMulti bool
	// noSlowlog exempts the command from SLOWLOG recording.
	noSlowlog bool
	// borrow marks a read-only command whose reply carries none of its
	// arguments: it runs on the reader's views of them (see
	// resp.Reader.ReadArgs), uncopied. Every other command has its
	// arguments cloned before parse, so whatever the store keeps is
	// owned; see Server.handle for the copies a borrowed one still needs.
	borrow bool
	// parse, when set, converts and validates the arguments once, before
	// the command is queued or run, so a transaction body — which reruns
	// on every retry — never parses and EXEC replays well-formed
	// commands only.
	parse func(a *args) error
	// Exactly one body is set. tx runs inside a store transaction, alone
	// or as one step of an EXEC block; an error aborts the transaction.
	// ctl is a control command: it acts on the connection's MULTI state
	// or on the server around the store (snapshots, stats rings), so it
	// runs outside any transaction, cannot fail one, and is never queued.
	tx  txBody
	ctl func(srv *Server, c *connState, a *args) resp.Value

	// Derived once by init.
	idx      int       // position in commandTable: the per-server metrics slot
	label    stm.Label // flight-recorder label of the command's transactions
	arityErr error     // the wrong-argument-count reply
}

// txBody is a transactional command body: it runs the command inside tx
// at instant now. The reply is meaningful only when the error is nil.
type txBody = func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error)

// args carries one request's arguments from the parse step to the
// body: the raw strings plus whatever parse converted.
type args struct {
	s    []string  // arguments after the command name, as received
	i, j int64     // a delta or a TTL in nanoseconds (i); a rank range (i, j)
	f    []float64 // ZADD's scores, one per (score, member) pair
	flag bool      // ZRANGE's WITHSCORES
}

// arityOK applies the command's arity rule to n arguments.
func (cmd *command) arityOK(n int) bool {
	if n < cmd.min || (cmd.max >= 0 && n > cmd.max) {
		return false
	}
	return cmd.step < 2 || (n-cmd.min)%cmd.step == 0
}

var (
	// commandTable holds every command the server accepts; a command's
	// idx is its position here.
	commandTable []*command
	// commandsByName indexes commandTable by upper-case name.
	commandsByName map[string]*command
	// unknownCommand stands in for every name the table does not hold.
	// All of them share its metrics slot, so a hostile client cannot
	// grow the label space.
	unknownCommand = &command{name: "UNKNOWN"}
)

// lookupCommand resolves an upper-cased wire name.
func lookupCommand(name string) *command {
	if cmd, ok := commandsByName[name]; ok {
		return cmd
	}
	return unknownCommand
}

// maxNameLen is the length of the longest name in commandTable (init
// checks it): a name sent with more ASCII bytes than that upper-cases
// to a longer one, which is unknown without a lookup.
const maxNameLen = len("ABORTLOG")

// internName is the handler's name callback for resp.Reader.ReadArgs:
// it resolves a command name as sent, in any case, to its table entry's
// upper-case name, or to "" when the table holds no such command. It
// allocates nothing for an ASCII name: the lookup keys the map by the
// bytes, and a lower-case spelling is upper-cased on the stack. A name
// with a non-ASCII byte goes through strings.ToUpper, whose Unicode
// case mapping can turn one into a table name ("ſet" is SET).
func internName(b []byte) string {
	if cmd, ok := commandsByName[string(b)]; ok {
		return cmd.name
	}
	var upper [maxNameLen]byte
	for i, c := range b {
		switch {
		case c >= utf8.RuneSelf:
			return lookupCommand(strings.ToUpper(string(b))).internedName()
		case i == maxNameLen:
			return ""
		case 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		}
		upper[i] = c
	}
	return lookupCommand(string(upper[:len(b)])).internedName()
}

// internedName is the name internName resolves to the command: its
// own, or "" for the unknown command.
func (cmd *command) internedName() string {
	if cmd == unknownCommand {
		return ""
	}
	return cmd.name
}

// The table is assigned in init rather than declared with its value:
// INFO renders per-command stats from it and is itself an entry, which
// as a declaration would be an initialization cycle.
func init() {
	commandTable = []*command{
		{name: "PING", max: 1, tx: func(_ *Store, _ *stm.Tx, _ int64, a *args) (resp.Value, error) {
			if len(a.s) == 1 {
				return resp.BulkVal(a.s[0]), nil
			}
			return resp.SimpleVal("PONG"), nil
		}},
		{name: "GET", borrow: true, min: 1, max: 1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			return bulkReply(st.GetTx(tx, now, a.s[0]))
		}},
		// SET key value [EX seconds | PX milliseconds]
		{name: "SET", min: 2, max: 4, step: 2, parse: parseSet,
			tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
				return resp.SimpleVal("OK"), st.SetTx(tx, now, a.s[0], a.s[1], time.Duration(a.i))
			}},
		{name: "DEL", min: 1, max: -1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			removed := int64(0)
			for _, key := range a.s {
				ok, err := st.DelTx(tx, now, key)
				if err != nil {
					return resp.Value{}, err
				}
				if ok {
					removed++
				}
			}
			return resp.IntVal(removed), nil
		}},
		{name: "INCR", min: 1, max: 1, parse: func(a *args) error { a.i = 1; return nil }, tx: cmdIncr},
		{name: "INCRBY", min: 2, max: 2, parse: intArg(1), tx: cmdIncr},
		{name: "MGET", borrow: true, min: 1, max: -1, tx: cmdMGet},
		{name: "MSET", min: 2, max: -1, step: 2, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			for i := 0; i+1 < len(a.s); i += 2 {
				if err := st.SetTx(tx, now, a.s[i], a.s[i+1], 0); err != nil {
					return resp.Value{}, err
				}
			}
			return resp.SimpleVal("OK"), nil
		}},
		// Non-positive TTLs are allowed (they delete, as in Redis).
		{name: "EXPIRE", min: 2, max: 2, parse: ttlArg("expire", time.Second), tx: cmdExpire},
		{name: "PEXPIRE", min: 2, max: 2, parse: ttlArg("pexpire", time.Millisecond), tx: cmdExpire},
		{name: "TTL", borrow: true, min: 1, max: 1, tx: cmdTTL(time.Second)},
		{name: "PTTL", borrow: true, min: 1, max: 1, tx: cmdTTL(time.Millisecond)},
		// Whole-store consistent count: every shard's every bucket joins
		// the read set (the long scan the paper's auditor scenario
		// stresses — expensive and proud of it).
		{name: "DBSIZE", borrow: true, tx: func(st *Store, tx *stm.Tx, now int64, _ *args) (resp.Value, error) {
			return intReply(st.lenTx(tx, now))
		}},
		{name: "TYPE", borrow: true, min: 1, max: 1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			t, ok, err := st.TypeTx(tx, now, a.s[0])
			if !ok {
				t = "none"
			}
			return resp.SimpleVal(t), err
		}},

		// HSET key field value [field value ...]
		{name: "HSET", min: 3, max: -1, step: 2, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			created := int64(0)
			for i := 1; i+1 < len(a.s); i += 2 {
				ok, err := st.HSetTx(tx, now, a.s[0], a.s[i], a.s[i+1])
				if err != nil {
					return resp.Value{}, err
				}
				if ok {
					created++
				}
			}
			return resp.IntVal(created), nil
		}},
		{name: "HGET", borrow: true, min: 2, max: 2, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			return bulkReply(st.HGetTx(tx, now, a.s[0], a.s[1]))
		}},
		{name: "HDEL", min: 2, max: -1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			return intReply(st.HDelTx(tx, now, a.s[0], a.s[1:]...))
		}},
		{name: "HGETALL", borrow: true, min: 1, max: 1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			pairs, err := st.HGetAllTx(tx, now, a.s[0])
			elems := make([]resp.Value, 0, 2*len(pairs))
			for _, p := range pairs {
				elems = append(elems, resp.BulkVal(p.K), resp.BulkVal(p.V))
			}
			return resp.ArrayVal(elems...), err
		}},
		{name: "HLEN", borrow: true, min: 1, max: 1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			return intReply(st.HLenTx(tx, now, a.s[0]))
		}},
		{name: "HINCRBY", min: 3, max: 3, parse: intArg(2), tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			return intReply(st.HIncrTx(tx, now, a.s[0], a.s[1], a.i))
		}},

		{name: "LPUSH", min: 2, max: -1, tx: cmdPush(true)},
		{name: "RPUSH", min: 2, max: -1, tx: cmdPush(false)},
		{name: "LPOP", min: 1, max: 1, tx: cmdPop(true)},
		{name: "RPOP", min: 1, max: 1, tx: cmdPop(false)},
		{name: "LLEN", borrow: true, min: 1, max: 1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			return intReply(st.LLenTx(tx, now, a.s[0]))
		}},
		{name: "LRANGE", borrow: true, min: 3, max: 3, parse: rankArgs, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			items, err := st.LRangeTx(tx, now, a.s[0], int(a.i), int(a.j))
			elems := make([]resp.Value, len(items))
			for i, v := range items {
				elems[i] = resp.BulkVal(v)
			}
			return resp.ArrayVal(elems...), err
		}},

		// ZADD key score member [score member ...]
		{name: "ZADD", min: 3, max: -1, step: 2, parse: parseZAdd, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			added := int64(0)
			for i, score := range a.f {
				ok, err := st.ZAddTx(tx, now, a.s[0], a.s[2+2*i], score)
				if err != nil {
					return resp.Value{}, err
				}
				if ok {
					added++
				}
			}
			return resp.IntVal(added), nil
		}},
		{name: "ZSCORE", borrow: true, min: 2, max: 2, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			score, ok, err := st.ZScoreTx(tx, now, a.s[0], a.s[1])
			if !ok {
				return resp.NullVal(), err
			}
			return resp.BulkVal(formatScore(score)), nil
		}},
		{name: "ZREM", min: 2, max: -1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			return intReply(st.ZRemTx(tx, now, a.s[0], a.s[1:]...))
		}},
		{name: "ZCARD", borrow: true, min: 1, max: 1, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			return intReply(st.ZCardTx(tx, now, a.s[0]))
		}},
		// ZRANGE key start stop [WITHSCORES]
		{name: "ZRANGE", borrow: true, min: 3, max: 4, parse: parseZRange, tx: func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
			entries, err := st.ZRangeTx(tx, now, a.s[0], int(a.i), int(a.j))
			elems := make([]resp.Value, 0, 2*len(entries))
			for _, ze := range entries {
				elems = append(elems, resp.BulkVal(ze.Member))
				if a.flag {
					elems = append(elems, resp.BulkVal(formatScore(ze.Score)))
				}
			}
			return resp.ArrayVal(elems...), err
		}},

		{name: "MULTI", ctl: (*Server).multi},
		{name: "EXEC", ctl: (*Server).exec},
		{name: "DISCARD", ctl: (*Server).discard},
		{name: "QUIT", ctl: func(_ *Server, c *connState, _ *args) resp.Value {
			c.quit = true
			return resp.SimpleVal("OK")
		}},
		// Snapshots bypass the transactional path: the cut is its own
		// read-only transaction plus file choreography (see Store.Save),
		// not something EXEC could replay.
		{name: "SAVE", noMulti: true, ctl: (*Server).save},
		{name: "BGSAVE", noMulti: true, ctl: (*Server).bgsave},
		// A stats snapshot inside EXEC would be a lie anyway.
		{name: "INFO", max: 1, noMulti: true, ctl: (*Server).infoReply},
		// SLOWLOG itself is exempt from recording: inspecting or resetting
		// the log must not repopulate it (a RESET would otherwise leave
		// one entry — the RESET). GET|LEN|RESET are arguments, checked by
		// the body.
		{name: "SLOWLOG", min: 1, max: -1, noMulti: true, noSlowlog: true, ctl: (*Server).slowlogReply},
		{name: "ABORTLOG", min: 1, max: -1, noMulti: true, ctl: (*Server).abortlogReply},
	}
	commandsByName = make(map[string]*command, len(commandTable))
	for i, cmd := range commandTable {
		if len(cmd.name) > maxNameLen {
			panic("kv: command name " + cmd.name + " is longer than maxNameLen")
		}
		cmd.idx = i
		cmd.label = stm.InternLabel(cmd.name)
		// Control commands have always reported their name lower-cased,
		// data commands as upper-cased off the wire; clients may match on
		// either, so the split stays.
		shown := cmd.name
		if cmd.ctl != nil {
			shown = strings.ToLower(shown)
		}
		cmd.arityErr = fmt.Errorf("ERR wrong number of arguments for '%s' command", shown)
		commandsByName[cmd.name] = cmd
	}
	unknownCommand.idx = len(commandTable)
}

// Argument errors, worded as the client sees them (commandError words
// the store's ErrNotInteger and ErrNotFloat the same way).
var (
	errSyntax     = errors.New("ERR syntax error")
	errNotInteger = errors.New("ERR value is not an integer or out of range")
	errNotFloat   = errors.New("ERR value is not a valid float")
)

// parseInt converts an integer argument (delta, TTL count).
func parseInt(arg string) (int64, error) {
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil {
		return 0, errNotInteger
	}
	return n, nil
}

// intArg builds the parse step of a command whose argument at is an
// integer delta.
func intArg(at int) func(*args) error {
	return func(a *args) (err error) {
		a.i, err = parseInt(a.s[at])
		return err
	}
}

// rankArgs parses the start and stop ranks of LRANGE and ZRANGE. They
// are bounded to int, the type the store's range forms take, so the
// one conversion here yields the value used.
func rankArgs(a *args) error {
	i, err1 := strconv.ParseInt(a.s[1], 10, strconv.IntSize)
	j, err2 := strconv.ParseInt(a.s[2], 10, strconv.IntSize)
	if err1 != nil || err2 != nil {
		return errNotInteger
	}
	a.i, a.j = i, j
	return nil
}

// parseTTL converts a TTL argument counted in unit to nanoseconds: an
// integer whose duration does not overflow time.Duration (int64
// nanoseconds) in either direction — a magnitude that did would
// silently flip sign, deleting a key meant to live ~300 years — and
// positive unless nonPositiveOK (EXPIRE's delete semantics) allows
// otherwise.
func parseTTL(name, arg string, unit time.Duration, nonPositiveOK bool) (int64, error) {
	n, err := parseInt(arg)
	if err != nil {
		return 0, err
	}
	if !nonPositiveOK && n <= 0 {
		return 0, fmt.Errorf("ERR invalid expire time in '%s' command", name)
	}
	limit := int64(math.MaxInt64) / int64(unit)
	if n > limit || n < -limit {
		return 0, fmt.Errorf("ERR invalid expire time in '%s' command", name)
	}
	return n * int64(unit), nil
}

// ttlArg builds the parse step of EXPIRE and PEXPIRE.
func ttlArg(name string, unit time.Duration) func(*args) error {
	return func(a *args) (err error) {
		a.i, err = parseTTL(name, a.s[1], unit, true)
		return err
	}
}

// parseSet parses SET's optional expiry, which must be a positive,
// non-overflowing TTL (Redis rejects EX 0 too).
func parseSet(a *args) (err error) {
	if len(a.s) == 2 {
		return nil
	}
	switch strings.ToUpper(a.s[2]) {
	case "EX":
		a.i, err = parseTTL("set", a.s[3], time.Second, false)
	case "PX":
		a.i, err = parseTTL("set", a.s[3], time.Millisecond, false)
	default:
		err = errSyntax
	}
	return err
}

// parseZAdd parses ZADD's scores: any finite or infinite float; NaN
// has no place in a total order.
func parseZAdd(a *args) error {
	a.f = make([]float64, 0, len(a.s)/2)
	for i := 1; i+1 < len(a.s); i += 2 {
		s, err := strconv.ParseFloat(a.s[i], 64)
		if err != nil || math.IsNaN(s) {
			return errNotFloat
		}
		a.f = append(a.f, s)
	}
	return nil
}

// parseZRange checks the option before the ranks, so a bad option is a
// syntax error whatever the ranks hold.
func parseZRange(a *args) error {
	if len(a.s) == 4 {
		if strings.ToUpper(a.s[3]) != "WITHSCORES" {
			return errSyntax
		}
		a.flag = true
	}
	return rankArgs(a)
}

// intReply renders a count or counter result as an integer reply.
func intReply[T int | int64](n T, err error) (resp.Value, error) {
	return resp.IntVal(int64(n)), err
}

// bulkReply renders a lookup result: the value, or null when absent.
func bulkReply(v string, ok bool, err error) (resp.Value, error) {
	if !ok {
		return resp.NullVal(), err
	}
	return resp.BulkVal(v), err
}

func cmdIncr(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
	return intReply(st.IncrTx(tx, now, a.s[0], a.i))
}

func cmdMGet(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
	elems := make([]resp.Value, len(a.s))
	for i, key := range a.s {
		v, ok, err := st.GetTx(tx, now, key)
		if err != nil && !errors.Is(err, ErrWrongType) {
			return resp.Value{}, err
		}
		// A container-typed key reads as absent (ok is false): Redis
		// MGET reports nil rather than failing the whole read.
		elems[i], _ = bulkReply(v, ok, nil)
	}
	return resp.ArrayVal(elems...), nil
}

func cmdExpire(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
	ok, err := st.ExpireTx(tx, now, a.s[0], time.Duration(a.i))
	return resp.IntVal(int64(boolInt(ok))), err
}

// cmdTTL builds the body of TTL (unit = second) and PTTL
// (millisecond); a remainder rounds up.
func cmdTTL(unit time.Duration) txBody {
	return func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
		d, ok, err := st.TTLTx(tx, now, a.s[0])
		switch {
		case !ok:
			return resp.IntVal(-2), err
		case d == NoTTL:
			return resp.IntVal(-1), nil
		}
		return resp.IntVal(int64((d + unit - 1) / unit)), nil
	}
}

// cmdPush builds the body of LPUSH (front) and RPUSH.
func cmdPush(front bool) txBody {
	return func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
		return intReply(st.pushTx(tx, now, a.s[0], front, a.s[1:]))
	}
}

// cmdPop builds the body of LPOP (front) and RPOP.
func cmdPop(front bool) txBody {
	return func(st *Store, tx *stm.Tx, now int64, a *args) (resp.Value, error) {
		return bulkReply(st.popTx(tx, now, a.s[0], front))
	}
}
