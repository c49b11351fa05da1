// Package kvclient is the one RESP client of the kv server, and the
// load it drives and the audit it runs against it.
//
// A Client is one connection: Do sends a command and reads its reply,
// Pipeline sends several in one write and reads their replies in
// order. Drive is the closed-loop load generator: zipf-skewed string
// commands, MULTI/EXEC transfers between conservation-checked accounts
// and between the fields of a hash ledger, private FIFO lists and zset
// round-trips. Audit checks what any run against the store must leave
// true however it ended, a kill -9 included: the accounts and the hash
// ledger still sum to what was seeded, and every private list is one
// FIFO run. PlantProbes and CheckProbes bracket a restart with TTL and
// container probes.
//
// The package speaks only the wire protocol (it imports resp, not kv),
// so the same code drives an in-process server in a test and a
// separate stmkv process that is killed under it.
package kvclient

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/resp"
)

// Client is one connection to a RESP server. It is not safe for
// concurrent use.
type Client struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

// Dial connects to addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// send encodes one command as an array frame of bulk strings.
func (c *Client) send(args []string) {
	c.w.Array(len(args))
	for _, a := range args {
		c.w.Bulk(a)
	}
}

// Do sends one command and reads its reply. An error reply is a
// value, not an error.
func (c *Client) Do(args ...string) (resp.Value, error) {
	c.send(args)
	if err := c.w.Flush(); err != nil {
		return resp.Value{}, err
	}
	return c.r.ReadReply()
}

// Must is Do with an error reply turned into an error.
func (c *Client) Must(args ...string) (resp.Value, error) {
	v, err := c.Do(args...)
	if err != nil {
		return v, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	if v.IsError() {
		return v, fmt.Errorf("%s: server error %q", strings.Join(args, " "), v.Str)
	}
	return v, nil
}

// Pipeline sends every command in one write, then reads one reply per
// command, in order. It returns once the last reply is read.
func (c *Client) Pipeline(cmds ...[]string) ([]resp.Value, error) {
	for _, args := range cmds {
		c.send(args)
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := make([]resp.Value, len(cmds))
	for i := range out {
		v, err := c.r.ReadReply()
		if err != nil {
			return out[:i], fmt.Errorf("reply %d of %d: %w", i+1, len(cmds), err)
		}
		out[i] = v
	}
	return out, nil
}
