package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestReadCommandForms pins the accepted grammar: array frames, inline
// commands, blank-line keepalives, and multi-command pipelines.
func TestReadCommandForms(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n", [][]string{{"GET", "k"}}},
		{"*1\r\n$4\r\nPING\r\n", [][]string{{"PING"}}},
		{"*0\r\n", [][]string{{}}},
		{"GET k\r\n", [][]string{{"GET", "k"}}},
		{"GET k\n", [][]string{{"GET", "k"}}}, // bare LF, lenient
		{"  SET   a   b  \r\n", [][]string{{"SET", "a", "b"}}},
		{"\r\n\r\nPING\r\n", [][]string{{"PING"}}}, // keepalives skipped
		{"*2\r\n$3\r\nSET\r\n$0\r\n\r\n", [][]string{{"SET", ""}}},
		{
			"*2\r\n$4\r\nINCR\r\n$1\r\nn\r\nPING\r\n*1\r\n$4\r\nPING\r\n",
			[][]string{{"INCR", "n"}, {"PING"}, {"PING"}},
		},
		{"*2\r\n$3\r\nGET\r\n$11\r\nwith\r\nbytes\r\n", [][]string{{"GET", "with\r\nbytes"}}},
	}
	for _, tc := range cases {
		r := NewReader(strings.NewReader(tc.in))
		for i, want := range tc.want {
			got, err := r.ReadCommand()
			if err != nil {
				t.Fatalf("input %q command %d: %v", tc.in, i, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("input %q command %d = %v, want %v", tc.in, i, got, want)
			}
		}
		if _, err := r.ReadCommand(); err != io.EOF {
			t.Fatalf("input %q: trailing read = %v, want io.EOF", tc.in, err)
		}
	}
}

// TestReadCommandMalformed pins the rejection contract: garbage,
// overflows and type confusion yield ProtoError; frames cut short
// yield io.ErrUnexpectedEOF; none of them panic.
func TestReadCommandMalformed(t *testing.T) {
	proto := []string{
		"*notanumber\r\n",
		"*-1\r\n",
		fmt.Sprintf("*%d\r\n", MaxArity+1),
		"*1\r\nPING\r\n",      // array element without '$'
		"*1\r\n$-1\r\n",       // negative bulk length
		"*1\r\n$99999999\r\n", // bulk over MaxBulk
		"*1\r\n$x\r\n",        // non-numeric bulk length
		"*1\r\n$3\r\nabcXY",   // missing CRLF after payload
		"*1\r\n$2\r\nab\rZPG", // mangled terminator
	}
	for _, in := range proto {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		if !IsProtoError(err) {
			t.Fatalf("input %q: err = %v, want ProtoError", in, err)
		}
	}
	truncated := []string{
		"*2\r\n$3\r\nGET\r\n",
		"*1\r\n$3\r\nab",
		"*1\r\n$3",
		"*1\r\n",
		"*2",
		"GET k", // inline without newline
	}
	for _, in := range truncated {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("input %q: err = %v, want io.ErrUnexpectedEOF", in, err)
		}
	}
}

// TestReadCommandOversized pins the limits: an inline line or a
// declared bulk/arity just inside the bound parses, just outside is a
// ProtoError before any oversized allocation.
func TestReadCommandOversized(t *testing.T) {
	// Inline at the limit parses (the line is MaxInline bytes before CRLF).
	long := strings.Repeat("a", MaxInline-4) // "GET " + payload
	r := NewReader(strings.NewReader("GET " + long + "\r\n"))
	if args, err := r.ReadCommand(); err != nil || len(args) != 2 || len(args[1]) != len(long) {
		t.Fatalf("inline at limit: %d args, err %v", len(args), err)
	}
	// One byte past the limit is rejected.
	r = NewReader(strings.NewReader("GET " + long + "ab\r\n"))
	if _, err := r.ReadCommand(); !IsProtoError(err) {
		t.Fatalf("inline past limit: err = %v, want ProtoError", err)
	}
	// Bulk at the limit parses.
	payload := strings.Repeat("b", MaxBulk)
	frame := fmt.Sprintf("*2\r\n$3\r\nSET\r\n$%d\r\n%s\r\n", MaxBulk, payload)
	r = NewReader(strings.NewReader(frame))
	if args, err := r.ReadCommand(); err != nil || len(args[1]) != MaxBulk {
		t.Fatalf("bulk at limit: err %v", err)
	}
	// Declared length past the limit is rejected without reading the body.
	r = NewReader(strings.NewReader(fmt.Sprintf("*1\r\n$%d\r\n", MaxBulk+1)))
	if _, err := r.ReadCommand(); !IsProtoError(err) {
		t.Fatalf("bulk past limit: err = %v, want ProtoError", err)
	}
}

// TestWriterReplies pins the outbound encoding byte for byte.
func TestWriterReplies(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Simple("OK")
	w.Error("ERR boom")
	w.Int(-42)
	w.Bulk("hello")
	w.Bulk("")
	w.Null()
	w.Array(2)
	w.Int(1)
	w.Null()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR boom\r\n:-42\r\n$5\r\nhello\r\n$0\r\n\r\n$-1\r\n*2\r\n:1\r\n$-1\r\n"
	if got := buf.String(); got != want {
		t.Fatalf("encoded %q, want %q", got, want)
	}
}

// TestCodecAllocs pins what the wire costs the allocator: encoding a
// reply allocates nothing once the buffer it is appended to has grown
// (marker, payload and terminator are appended separately, digits
// formatted in place), through a Writer or straight into a caller's
// buffer. Decoding a command with ReadArgs into a reused argv allocates
// nothing — the arguments are copied into the Reader's arena and the
// headers parsed off the bytes — and ReadCommand, whose results are the
// caller's to keep, allocates the argument slice plus one string per
// argument.
func TestCodecAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	reply := ArrayVal(SimpleVal("OK"), ErrVal("ERR boom"), IntVal(-1234567), BulkVal("hello"), NullVal())
	if n := testing.AllocsPerRun(100, func() {
		w.Value(reply)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encode: %v allocs per reply, want 0", n)
	}
	var batch []byte
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if batch, err = AppendValue(batch[:0], reply); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("append-encode: %v allocs per reply, want 0", n)
	}

	const frame = "*3\r\n$3\r\nSET\r\n$8\r\nkey:0001\r\n$5\r\nvalue\r\n"
	const runs = 100
	r := NewReader(strings.NewReader(strings.Repeat(frame, runs+1))) // AllocsPerRun warms up once
	if n := testing.AllocsPerRun(runs, func() {
		if args, err := r.ReadCommand(); err != nil || len(args) != 3 {
			t.Fatalf("ReadCommand = %q, %v", args, err)
		}
	}); n != 4 {
		t.Errorf("decode: %v allocs per 3-argument command, want 4 (the slice and one per argument)", n)
	}
	r = NewReader(strings.NewReader(strings.Repeat(frame, runs+1)))
	var argv []string
	if n := testing.AllocsPerRun(runs, func() {
		var err error
		if argv, err = r.ReadArgs(argv, nil); err != nil || len(argv) != 3 {
			t.Fatalf("ReadArgs = %q, %v", argv, err)
		}
	}); n != 0 {
		t.Errorf("decode into argv: %v allocs per 3-argument command, want 0", n)
	}
}

// TestReadArgs pins ReadArgs's contract: argv's array is reused, a name
// intern knows is intern's string, arguments are decoded as ReadCommand
// decodes them, and an arena a large argument grew is let go at the
// next call.
func TestReadArgs(t *testing.T) {
	in := "*2\r\n$3\r\nget\r\n$3\r\nabc\r\nPING x\r\n*2\r\n$3\r\nSET\r\n$3\r\nxyz\r\n" +
		fmt.Sprintf("*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", MaxBulk, strings.Repeat("b", MaxBulk)) +
		"*1\r\n$4\r\nPING\r\n"
	r := NewReader(strings.NewReader(in))
	const interned = "GET"
	intern := func(b []byte) string {
		if strings.EqualFold(string(b), "get") {
			return interned
		}
		return ""
	}
	argv := make([]string, 0, 4)
	want := [][]string{{"GET", "abc"}, {"PING", "x"}, {"SET", "xyz"}, {"GET", strings.Repeat("b", MaxBulk)}, {"PING"}}
	for i, w := range want {
		got, err := r.ReadArgs(argv, intern)
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if !slices.Equal(got, w) {
			t.Fatalf("command %d = %.20q, want %.20q", i, got, w)
		}
		if &got[:1][0] != &argv[:1][0] {
			t.Fatalf("command %d: argv's array was not reused", i)
		}
		if w[0] == "GET" && unsafe.StringData(got[0]) != unsafe.StringData(interned) {
			t.Fatalf("command %d: the name is a copy, not intern's string", i)
		}
		if i == 4 && cap(r.arena) > maxRetained {
			t.Fatalf("kept a %d-byte arena after a %d-byte argument", cap(r.arena), MaxBulk)
		}
		argv = got
	}
}

// TestParseInt holds the header parser to strconv.ParseInt's grammar
// (base 10, 64 bits): an optional sign, at least one digit, no
// underscores or spaces, and the int64 range exactly.
func TestParseInt(t *testing.T) {
	for _, s := range []string{
		"", "0", "-0", "+0", "7", "007", "+5", "-5", "-", "+", "+-1", "--1", " 1", "1 ", "1_000", "0x10", "12a",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551616", "99999999999999999999", "1024", "1048576",
	} {
		got, ok := parseInt([]byte(s))
		want, err := strconv.ParseInt(s, 10, 64)
		if ok != (err == nil) || (ok && got != want) {
			t.Errorf("parseInt(%q) = %d, %v; strconv.ParseInt = %d, %v", s, got, ok, want, err)
		}
	}
}

// TestLineRepliesSanitized pins the reply-injection fix: a CR or LF in
// a simple string or error payload goes out as a space, so the reply
// stays one line and one reply; a bulk string carries them verbatim.
func TestLineRepliesSanitized(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Error("ERR unknown command 'X\r\n+OK'")
	w.Simple("a\nb\rc")
	w.Bulk("x\r\ny")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "-ERR unknown command 'X  +OK'\r\n+a b c\r\n$4\r\nx\r\ny\r\n"
	if got := buf.String(); got != want {
		t.Fatalf("encoded %q, want %q", got, want)
	}
	r := NewReader(&buf)
	for _, kind := range []byte{'-', '+', '$'} {
		if v, err := r.ReadReply(); err != nil || v.Kind != kind {
			t.Fatalf("reply = %+v, %v; want kind %q", v, err, kind)
		}
	}
	if v, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("a fourth reply %+v, %v; want io.EOF", v, err)
	}
}

// errWriter fails after n bytes, for the sticky-error contract.
type errWriter struct {
	n      int
	writes int
}

func (w *errWriter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("sink full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriterSticky: the first error — a failed Write or a value that
// cannot be encoded — is retained and reported by every later Flush;
// later encodes are dropped and nothing more reaches the sink.
func TestWriterSticky(t *testing.T) {
	sink := &errWriter{n: 4}
	w := NewWriter(sink)
	for i := 0; i < 1000; i++ {
		w.Bulk(strings.Repeat("x", 64))
	}
	err := w.Flush()
	if err == nil {
		t.Fatal("Flush after sink failure = nil, want error")
	}
	w.Simple("OK")
	if again := w.Flush(); again != err || sink.writes != 1 || len(w.buf) != 0 {
		t.Fatalf("after the failure: Flush = %v (first %v), %d writes, %d bytes buffered", again, err, sink.writes, len(w.buf))
	}

	var buf bytes.Buffer
	w = NewWriter(&buf)
	w.Simple("OK")
	w.Value(Value{Kind: '?'})
	w.Int(1)
	err = w.Flush()
	if !IsProtoError(err) || buf.Len() != 0 {
		t.Fatalf("unencodable value: Flush = %v, wrote %q", err, buf.String())
	}
	if again := w.Flush(); again != err {
		t.Fatalf("second Flush = %v, want the first error %v", again, err)
	}
}

// TestWriterBufferRetention: a Writer keeps its buffer across a Flush,
// so a steady stream of small batches reuses one, but not a buffer a
// large batch grew past maxRetained.
func TestWriterBufferRetention(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(&sink)
	w.Bulk("hello")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) == 0 {
		t.Fatal("a small batch's buffer was not kept")
	}
	big := strings.Repeat("x", maxRetained)
	w.Bulk(big)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) != 0 {
		t.Fatalf("kept a %d-byte buffer after a batch past the %d-byte cap", cap(w.buf), maxRetained)
	}
	if want := fmt.Sprintf("$5\r\nhello\r\n$%d\r\n%s\r\n", len(big), big); sink.String() != want {
		t.Fatal("the large batch did not arrive byte-identical")
	}
}

// FuzzReadCommand is the protocol-fuzz contract: arbitrary bytes never
// panic the reader, every returned command is within the declared
// limits, and the two decoders agree. ReadArgs into one reused argv,
// with a name callback, returns what ReadCommand returns, or fails with
// the same class of error and the same text; every ReadCommand result
// is still intact when the stream ends; and the header parser accepts
// exactly what strconv.ParseInt does. The seed corpus covers each frame
// family and each rejection path.
func FuzzReadCommand(f *testing.F) {
	seeds := []string{
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n",
		"GET k\r\n",
		"PING\r\n",
		"*0\r\n",
		"*1\r\n$4\r\nPING\r\n",
		"*-1\r\n",
		"*99999\r\n",
		"*1\r\n$-5\r\n",
		"*1\r\n$99999999\r\n",
		"*1\r\n$3\r\nab",
		"\r\n",
		"$5\r\nhello\r\n",
		":12\r\n",
		"*2\r\n$3\r\nGET\r\njunk",
		strings.Repeat("a", 9000),
		"*1\r\n$0\r\n\r\n",
		"*+2\r\n$03\r\nget\r\n$-0\r\n",
		"*9223372036854775808\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\nget k\r\n*1\r\n$3\r\nGET\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	intern := func(name []byte) string {
		if string(name) == "GET" {
			return "GET"
		}
		return ""
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ok := parseInt(data)
		if want, err := strconv.ParseInt(string(data), 10, 64); ok != (err == nil) || (ok && n != want) {
			t.Fatalf("parseInt(%q) = %d, %v; strconv.ParseInt = %d, %v", data, n, ok, want, err)
		}
		r := NewReader(bytes.NewReader(data))
		ra := NewReader(bytes.NewReader(data))
		var argv []string
		var kept, copies [][]string
		defer func() {
			for i := range kept {
				if !slices.Equal(kept[i], copies[i]) {
					t.Fatalf("ReadCommand result %d changed to %q, was %q", i, kept[i], copies[i])
				}
			}
		}()
		for i := 0; i < 64; i++ { // bounded: a stream yields many commands
			args, err := r.ReadCommand()
			var errArgs error
			argv, errArgs = ra.ReadArgs(argv, intern)
			if (err == nil) != (errArgs == nil) || (err != nil && (err.Error() != errArgs.Error() ||
				IsProtoError(err) != IsProtoError(errArgs) || errors.Is(err, io.EOF) != errors.Is(errArgs, io.EOF) ||
				errors.Is(err, io.ErrUnexpectedEOF) != errors.Is(errArgs, io.ErrUnexpectedEOF))) {
				t.Fatalf("command %d: ReadCommand error %v, ReadArgs error %v", i, err, errArgs)
			}
			if err != nil {
				if !IsProtoError(err) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if !slices.Equal(args, argv) {
				t.Fatalf("command %d: ReadCommand = %q, ReadArgs = %q", i, args, argv)
			}
			if len(args) > MaxArity {
				t.Fatalf("command with %d args exceeds MaxArity", len(args))
			}
			for _, a := range args {
				if len(a) > MaxBulk {
					t.Fatalf("argument of %d bytes exceeds MaxBulk", len(a))
				}
			}
			kept = append(kept, args)
			c := make([]string, len(args))
			for j, a := range args {
				c[j] = strings.Clone(a)
			}
			copies = append(copies, c)
		}
	})
}
