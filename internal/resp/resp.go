// Package resp implements the RESP-lite wire protocol the stmkv
// server speaks: the subset of Redis's RESP2 needed for a command
// stream — inline commands and array-of-bulk-strings frames inbound;
// simple strings, errors, integers, bulk strings, nulls and arrays
// outbound.
//
// The reader is written against hostile input: every frame is bounded
// (line length, bulk length, array arity) before any allocation sized
// from the wire, truncated frames surface io.ErrUnexpectedEOF, and no
// input can panic the parser — the protocol-fuzz suite pins that
// contract. Limit violations and malformed frames return *ProtoError,
// which a server can report to the client before closing; everything
// else is a transport error.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Wire limits. Generous for a benchmark workload, small enough that a
// hostile frame cannot balloon memory: a declared bulk or array length
// is checked against these before any buffer is sized from it.
const (
	// MaxInline bounds one inline command line (bytes before CRLF).
	MaxInline = 64 * 1024
	// MaxBulk bounds one bulk string's declared length.
	MaxBulk = 1 << 20
	// MaxArity bounds one command array's declared element count.
	MaxArity = 1024
	// MaxFrame bounds one command's total payload bytes across all its
	// bulk strings: without it the per-field limits compose to
	// MaxArity×MaxBulk (a gibibyte) of heap per in-flight frame, which
	// a handful of hostile connections could turn into an OOM.
	MaxFrame = 8 << 20
)

// ProtoError is a protocol violation by the peer: malformed frame,
// limit overflow, wrong type marker. The text is safe to send back as
// an error reply before closing the connection.
type ProtoError struct {
	msg string
}

func (e *ProtoError) Error() string { return "resp: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &ProtoError{msg: fmt.Sprintf(format, args...)}
}

// IsProtoError reports whether err is a protocol violation (as opposed
// to a transport failure), so servers can send a final -ERR reply.
func IsProtoError(err error) bool {
	var pe *ProtoError
	return errors.As(err, &pe)
}

// Reader decodes a client's command stream.
type Reader struct {
	br *bufio.Reader
	// arena holds the bytes of the arguments the last ReadArgs call
	// returned: they view it, and the next call reclaims it.
	arena []byte
}

// NewReader wraps r for command decoding. The buffer is sized to
// MaxInline so ReadSlice's buffer-full condition coincides with the
// inline limit.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, MaxInline+2)}
}

// minArena is the arena a Reader starts with: room for a few commands'
// worth of keys and values, so a small command never grows it.
const minArena = 512

// poisonArena is the test hook behind SetArenaPoison.
var poisonArena atomic.Bool

// SetArenaPoison makes every Reader overwrite its arena with '#' bytes
// whenever ReadArgs reclaims it, so that an argument kept past the call
// that invalidates it reads as garbage rather than as a plausible stale
// argument. It is for tests of code that borrows ReadArgs's arguments.
func SetArenaPoison(on bool) { poisonArena.Store(on) }

// ReadCommand reads one command: either an array of bulk strings
// ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n") or an inline line ("GET k\r\n",
// space-separated, the hand-telnet form). Empty inline lines are
// skipped, matching Redis. io.EOF is returned only on a clean
// connection close (no partial frame consumed); a frame cut short
// yields io.ErrUnexpectedEOF. The slice and every string in it are
// the caller's to keep.
func (r *Reader) ReadCommand() ([]string, error) {
	args, err := r.ReadArgs(nil, nil)
	if err != nil {
		return nil, err
	}
	for i, a := range args {
		args[i] = strings.Clone(a)
	}
	return args, nil
}

// ReadArgs reads one command as ReadCommand does, appending its
// arguments to argv[:0], and returns the extended slice. An argument is
// copied out of the read buffer into an arena the Reader owns and
// returned as a string that views it: it stays valid until the next
// ReadArgs or ReadCommand call, and must be cloned to be kept longer.
//
// intern, when set, is handed the raw bytes of the command name — the
// first argument — before they are copied; a non-empty result stands
// for the name in argv, which is then not copied at all, and "" has it
// copied like any other argument. The bytes are valid only during the
// call.
func (r *Reader) ReadArgs(argv []string, intern func(name []byte) string) ([]string, error) {
	if poisonArena.Load() {
		full := r.arena[:cap(r.arena)]
		for i := range full {
			full[i] = '#'
		}
	}
	if r.arena = r.arena[:0]; cap(r.arena) > maxRetained {
		r.arena = nil
	}
	for {
		first, err := r.br.ReadByte()
		if err != nil {
			return argv[:0], err // io.EOF: clean close between commands
		}
		if first == '*' {
			return r.readArray(argv[:0], intern)
		}
		if err := r.br.UnreadByte(); err != nil {
			return argv[:0], err
		}
		args, err := r.readInline(argv[:0], intern)
		if err != nil {
			return args, err
		}
		if len(args) == 0 {
			continue // bare CRLF keepalive
		}
		return args, nil
	}
}

// arg returns b as an argument: the interned name when b is the first
// argument and intern knows it, otherwise a copy in the arena.
func (r *Reader) arg(b []byte, first bool, intern func([]byte) string) string {
	if first && intern != nil {
		if s := intern(b); s != "" {
			return s
		}
	}
	if len(b) == 0 {
		return ""
	}
	if r.arena == nil {
		r.arena = make([]byte, 0, max(minArena, len(b)))
	}
	start := len(r.arena)
	// A view taken before append moved the arena keeps the old array,
	// which nothing writes to again.
	r.arena = append(r.arena, b...)
	return unsafe.String(&r.arena[start], len(b))
}

// readLine reads up to CRLF (or a bare LF, accepted leniently),
// bounded by MaxInline, returning the line without its terminator.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, protoErrf("line exceeds %d bytes", MaxInline)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1] // strip \n
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if len(line) > MaxInline {
		return nil, protoErrf("line exceeds %d bytes", MaxInline)
	}
	return line, nil
}

// readInline splits one inline command line on spaces into argv, which
// is empty.
// Quoting is not supported — this is the telnet/debug form, not a full
// shell lexer.
func (r *Reader) readInline(argv []string, intern func([]byte) string) ([]string, error) {
	line, err := r.readLine()
	if err != nil {
		return argv, err
	}
	fields := bytes.Fields(line)
	if len(fields) > MaxArity {
		return argv, protoErrf("inline command exceeds %d arguments", MaxArity)
	}
	if cap(argv) < len(fields) {
		argv = make([]string, 0, len(fields))
	}
	for i, f := range fields {
		argv = append(argv, r.arg(f, i == 0, intern))
	}
	return argv, nil
}

// readArray reads the body of an array frame (the '*' marker already
// consumed) into argv, which is empty: a decimal arity line, then that
// many bulk strings.
func (r *Reader) readArray(argv []string, intern func([]byte) string) ([]string, error) {
	n, err := r.readInt()
	if err != nil {
		return argv, err
	}
	if n < 0 || n > MaxArity {
		return argv, protoErrf("array arity %d out of range [0,%d]", n, MaxArity)
	}
	if cap(argv) < int(n) {
		argv = make([]string, 0, n)
	}
	total := int64(0)
	for i := int64(0); i < n; i++ {
		s, err := r.readBulk(i == 0, intern)
		if err != nil {
			return argv, err
		}
		if total += int64(len(s)); total > MaxFrame {
			return argv, protoErrf("frame payload exceeds %d bytes", MaxFrame)
		}
		argv = append(argv, s)
	}
	return argv, nil
}

// readInt parses the rest of a header line as a decimal integer.
func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, ok := parseInt(line)
	if !ok {
		return 0, protoErrf("bad length %q", line)
	}
	return n, nil
}

// parseInt parses b as strconv.ParseInt(string(b), 10, 64) does —
// an optional sign and at least one decimal digit, within int64 —
// without making a string of it.
func parseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg, b = b[0] == '-', b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = uint64(1) << 63 // the magnitude of math.MinInt64
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if !neg {
		if n == limit {
			return 0, false
		}
		return int64(n), true
	}
	return -int64(n), true // n == limit wraps to math.MinInt64, as it should
}

// readBulk reads one "$<len>\r\n<len bytes>\r\n" bulk string as an
// argument (see arg; first marks the command name).
func (r *Reader) readBulk(first bool, intern func([]byte) string) (string, error) {
	marker, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	if marker != '$' {
		return "", protoErrf("expected bulk string, got %q", marker)
	}
	n, err := r.readInt()
	if err != nil {
		return "", err
	}
	if n < 0 || n > MaxBulk {
		return "", protoErrf("bulk length %d out of range [0,%d]", n, MaxBulk)
	}
	b, err := r.readPayload(int(n), "bulk string")
	if err != nil {
		return "", err
	}
	return r.arg(b, first, intern), nil
}

// readPayload reads a bulk payload of n bytes (already checked against
// MaxBulk) and its CRLF terminator; what names the payload in the
// missing-terminator error. A payload that fits the read buffer is
// returned in place, valid until the next read; a larger one goes
// through a buffer of its own.
func (r *Reader) readPayload(n int, what string) ([]byte, error) {
	var buf []byte
	var err error
	inPlace := n+2 <= r.br.Size()
	if inPlace {
		buf, err = r.br.Peek(n + 2)
	} else {
		buf = make([]byte, n+2)
		_, err = io.ReadFull(r.br, buf)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, protoErrf("%s missing CRLF terminator", what)
	}
	if inPlace {
		// Discarding moves no bytes, so buf stays valid until the next read.
		_, err = r.br.Discard(n + 2) // cannot fail: Peek just returned these bytes
	}
	return buf[:n], err
}

// Writer encodes values — a server's replies, a client's commands — by
// appending them to its own buffer, and Flush hands everything encoded
// since the last Flush to the underlying writer in one Write. The first
// error, an unencodable value or a failed Write, sticks: later encodes
// are dropped and every Flush reports it, so a sequence needs one check.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// maxRetained bounds the buffer a Writer keeps across a Flush: one that
// grew past it for a large batch is let go rather than pinned by an
// idle connection.
const maxRetained = 64 << 10

// NewWriter returns a Writer that flushes to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Simple encodes a simple-string reply: +s.
func (w *Writer) Simple(s string) { w.Value(SimpleVal(s)) }

// Error encodes an error reply: -msg.
func (w *Writer) Error(msg string) { w.Value(ErrVal(msg)) }

// Int encodes an integer reply: :n.
func (w *Writer) Int(n int64) { w.Value(IntVal(n)) }

// Bulk encodes a bulk string: $len/payload.
func (w *Writer) Bulk(s string) { w.Value(BulkVal(s)) }

// Null encodes the null bulk reply ($-1), Redis's "no such key".
func (w *Writer) Null() { w.Value(NullVal()) }

// Array encodes an array header for n elements; the caller then encodes
// the n elements.
func (w *Writer) Array(n int) {
	if w.err == nil {
		w.buf = appendNumber(w.buf, '*', int64(n))
	}
}

// Value encodes v.
func (w *Writer) Value(v Value) {
	if w.err == nil {
		w.buf, w.err = AppendValue(w.buf, v)
	}
}

// Flush writes what was encoded since the last Flush in one Write and
// reports the first error.
func (w *Writer) Flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	n, err := w.w.Write(w.buf)
	if err == nil && n < len(w.buf) {
		err = io.ErrShortWrite
	}
	w.err = err
	if w.buf = w.buf[:0]; cap(w.buf) > maxRetained {
		w.buf = nil
	}
	return err
}

// The encoders append marker, payload and terminator to the buffer
// separately — no reply is first assembled as a string, and a bulk
// payload is copied once, into the buffer.

// appendLine appends a marker, a payload and CRLF. A CR or LF in the
// payload would end the line early and let what follows it read as a
// reply of its own — an error that echoes a client's argument could
// then forge one — so each is sent as a space, as Redis does.
func appendLine(b []byte, marker byte, s string) []byte {
	b = append(b, marker)
	start := len(b)
	b = append(b, s...)
	for i := start; i < len(b); i++ {
		if b[i] == '\r' || b[i] == '\n' {
			b[i] = ' '
		}
	}
	return append(b, '\r', '\n')
}

// appendNumber appends a marker, a decimal integer and CRLF.
func appendNumber(b []byte, marker byte, n int64) []byte {
	b = append(b, marker)
	b = strconv.AppendInt(b, n, 10)
	return append(b, '\r', '\n')
}
