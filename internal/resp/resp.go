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
}

// NewReader wraps r for command decoding. The buffer is sized to
// MaxInline so ReadSlice's buffer-full condition coincides with the
// inline limit.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, MaxInline+2)}
}

// ReadCommand reads one command: either an array of bulk strings
// ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n") or an inline line ("GET k\r\n",
// space-separated, the hand-telnet form). Empty inline lines are
// skipped, matching Redis. io.EOF is returned only on a clean
// connection close (no partial frame consumed); a frame cut short
// yields io.ErrUnexpectedEOF.
func (r *Reader) ReadCommand() ([]string, error) {
	for {
		first, err := r.br.ReadByte()
		if err != nil {
			return nil, err // io.EOF: clean close between commands
		}
		if first == '*' {
			return r.readArray()
		}
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		args, err := r.readInline()
		if err != nil {
			return nil, err
		}
		if len(args) == 0 {
			continue // bare CRLF keepalive
		}
		return args, nil
	}
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

// readInline splits one inline command line on spaces. Quoting is not
// supported — this is the telnet/debug form, not a full shell lexer.
func (r *Reader) readInline() ([]string, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	fields := bytes.Fields(line)
	if len(fields) > MaxArity {
		return nil, protoErrf("inline command exceeds %d arguments", MaxArity)
	}
	args := make([]string, len(fields))
	for i, f := range fields {
		args[i] = string(f)
	}
	return args, nil
}

// readArray reads the body of an array frame (the '*' marker already
// consumed): a decimal arity line, then that many bulk strings.
func (r *Reader) readArray() ([]string, error) {
	n, err := r.readInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxArity {
		return nil, protoErrf("array arity %d out of range [0,%d]", n, MaxArity)
	}
	args := make([]string, 0, n)
	total := int64(0)
	for i := int64(0); i < n; i++ {
		s, err := r.readBulk()
		if err != nil {
			return nil, err
		}
		if total += int64(len(s)); total > MaxFrame {
			return nil, protoErrf("frame payload exceeds %d bytes", MaxFrame)
		}
		args = append(args, s)
	}
	return args, nil
}

// readInt parses the rest of a header line as a decimal integer.
func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, protoErrf("bad length %q", line)
	}
	return n, nil
}

// readBulk reads one "$<len>\r\n<len bytes>\r\n" bulk string.
func (r *Reader) readBulk() (string, error) {
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
	return r.readPayload(int(n), "bulk string")
}

// readPayload reads a bulk payload of n bytes (already checked against
// MaxBulk) and its CRLF terminator; what names the payload in the
// missing-terminator error. A payload that fits the read buffer is
// copied out of it once, into the string returned; a larger one goes
// through a buffer of its own.
func (r *Reader) readPayload(n int, what string) (string, error) {
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
		return "", err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return "", protoErrf("%s missing CRLF terminator", what)
	}
	s := string(buf[:n])
	if inPlace {
		_, err = r.br.Discard(n + 2) // cannot fail: Peek just returned these bytes
	}
	return s, err
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

// appendLine appends a marker, a payload and CRLF.
func appendLine(b []byte, marker byte, s string) []byte {
	b = append(b, marker)
	b = append(b, s...)
	return append(b, '\r', '\n')
}

// appendNumber appends a marker, a decimal integer and CRLF.
func appendNumber(b []byte, marker byte, n int64) []byte {
	b = append(b, marker)
	b = strconv.AppendInt(b, n, 10)
	return append(b, '\r', '\n')
}
