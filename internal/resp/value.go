package resp

import "io"

// Value is one protocol value: a server reply, or an element of an
// array reply. The server builds replies as Values (so MULTI/EXEC can
// buffer them and emit one array), and the load-generator client
// decodes them with Reader.ReadReply.
type Value struct {
	// Kind is the RESP type marker: '+' simple, '-' error, ':' integer,
	// '$' bulk, '*' array.
	Kind byte
	// Str holds simple, error and bulk payloads.
	Str string
	// Int holds integer payloads.
	Int int64
	// Elems holds array elements.
	Elems []Value
	// Null marks the null bulk ($-1) and null array (*-1) forms.
	Null bool
}

// SimpleVal is a "+s" reply.
func SimpleVal(s string) Value { return Value{Kind: '+', Str: s} }

// ErrVal is a "-msg" reply.
func ErrVal(msg string) Value { return Value{Kind: '-', Str: msg} }

// IntVal is a ":n" reply.
func IntVal(n int64) Value { return Value{Kind: ':', Int: n} }

// BulkVal is a "$len/s" reply.
func BulkVal(s string) Value { return Value{Kind: '$', Str: s} }

// NullVal is the "$-1" no-such-key reply.
func NullVal() Value { return Value{Kind: '$', Null: true} }

// ArrayVal is a "*n" reply of the given elements.
func ArrayVal(elems ...Value) Value {
	if elems == nil {
		elems = []Value{}
	}
	return Value{Kind: '*', Elems: elems}
}

// IsError reports whether the value is an error reply.
func (v Value) IsError() bool { return v.Kind == '-' }

// AppendValue appends v's wire form to b and returns the extended
// buffer. A value of unknown kind is an error, and b then ends in a
// partial encoding.
func AppendValue(b []byte, v Value) ([]byte, error) {
	switch v.Kind {
	case '+', '-':
		return appendLine(b, v.Kind, v.Str), nil
	case ':':
		return appendNumber(b, ':', v.Int), nil
	case '$':
		if v.Null {
			return appendNumber(b, '$', -1), nil
		}
		b = appendNumber(b, '$', int64(len(v.Str)))
		b = append(b, v.Str...)
		return append(b, '\r', '\n'), nil
	case '*':
		if v.Null {
			return appendNumber(b, '*', -1), nil
		}
		b = appendNumber(b, '*', int64(len(v.Elems)))
		for _, e := range v.Elems {
			var err error
			if b, err = AppendValue(b, e); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	return b, protoErrf("cannot encode value kind %q", v.Kind)
}

// maxReplyDepth bounds array nesting in ReadReply, so a hostile server
// (or fuzzer) cannot recurse the client into the ground.
const maxReplyDepth = 8

// ReadReply decodes one server reply — the client half of the
// protocol. Limits mirror the command reader's: bulk payloads bounded
// by MaxBulk, arrays by MaxArity, nesting by a fixed depth.
func (r *Reader) ReadReply() (Value, error) {
	return r.readReply(maxReplyDepth)
}

func (r *Reader) readReply(depth int) (Value, error) {
	if depth <= 0 {
		return Value{}, protoErrf("reply nesting exceeds %d", maxReplyDepth)
	}
	marker, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err // io.EOF: clean close between replies
	}
	switch marker {
	case '+', '-':
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: marker, Str: string(line)}, nil
	case ':':
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		return IntVal(n), nil
	case '$':
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return NullVal(), nil
		}
		if n < 0 || n > MaxBulk {
			return Value{}, protoErrf("bulk length %d out of range [0,%d]", n, MaxBulk)
		}
		s, err := r.readPayload(int(n), "bulk reply")
		if err != nil {
			return Value{}, err
		}
		return BulkVal(s), nil
	case '*':
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Kind: '*', Null: true}, nil
		}
		if n < 0 || n > MaxArity {
			return Value{}, protoErrf("array arity %d out of range [0,%d]", n, MaxArity)
		}
		elems := make([]Value, 0, n)
		for i := int64(0); i < n; i++ {
			e, err := r.readReply(depth - 1)
			if err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return Value{}, err
			}
			elems = append(elems, e)
		}
		return Value{Kind: '*', Elems: elems}, nil
	default:
		return Value{}, protoErrf("unknown reply marker %q", marker)
	}
}
