package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"secext/internal/core"
	"secext/internal/remote"
)

// client is one closed-loop connection speaking the line protocol.
type client struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

// dial connects, consumes the banner and authenticates.
func dial(addr, token string) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{c: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	if line, err := c.r.ReadSlice('\n'); err != nil || !bytes.HasPrefix(line, []byte("OK")) {
		nc.Close()
		return nil, fmt.Errorf("banner: %q %v", line, err)
	}
	line, err := c.roundTrip([]byte("AUTH " + token + "\n"))
	if err != nil || !bytes.HasPrefix(line, []byte("OK")) {
		nc.Close()
		return nil, fmt.Errorf("auth: %q %v", line, err)
	}
	return c, nil
}

func (c *client) roundTrip(req []byte) ([]byte, error) {
	if _, err := c.w.Write(req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.r.ReadSlice('\n')
}

var (
	replyAllowed = []byte("OK allowed")
	replyDenied  = []byte("ERR denied:")
)

// verdict parses a CHECK reply.
func verdict(line []byte) (bool, error) {
	switch {
	case bytes.HasPrefix(line, replyAllowed):
		return true, nil
	case bytes.HasPrefix(line, replyDenied):
		return false, nil
	}
	return false, fmt.Errorf("unexpected reply %q", line)
}

// check sends one CHECK and reports whether the verdict matches the
// oracle. With split set it also returns the client write+flush time
// and the time from flush to reply.
func (c *client) check(o *op, split bool) (ok bool, write, wait time.Duration, err error) {
	var t0, t1 time.Time
	if split {
		t0 = time.Now()
	}
	if _, err = c.w.Write(o.line); err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		return false, 0, 0, err
	}
	if split {
		t1 = time.Now()
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return false, 0, 0, err
	}
	if split {
		write, wait = t1.Sub(t0), time.Since(t1)
	}
	got, err := verdict(line)
	return err == nil && got == o.want, write, wait, err
}

// quit ends the session politely and closes the connection.
func (c *client) quit() {
	_, _ = c.roundTrip([]byte("QUIT\n")) // the connection closes either way
	c.c.Close()
}

// edgeServer is an in-process remote.Server on a loopback listener.
type edgeServer struct {
	srv  *remote.Server
	ln   net.Listener
	done chan error
}

func startEdge(sys *core.System) (*edgeServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &edgeServer{srv: remote.NewServer(sys), ln: ln, done: make(chan error, 1)}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

func (e *edgeServer) addr() string { return e.ln.Addr().String() }

// close stops the server and waits for Serve to return.
func (e *edgeServer) close() error {
	e.srv.Close()
	e.ln.Close()
	return <-e.done
}

// nullServer speaks the banner/AUTH/CHECK framing of the line protocol
// and answers every CHECK with a fixed "OK allowed" without consulting
// anything. Driven by the same client loop as the real server, its
// round trip is the harness-plus-kernel floor under edge-check.
type nullServer struct {
	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	cs     map[net.Conn]bool
}

func startNull() (*nullServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &nullServer{ln: ln, cs: make(map[net.Conn]bool)}
	n.wg.Add(1)
	go n.serve()
	return n, nil
}

func (n *nullServer) serve() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.cs[c] = true
		n.wg.Add(1)
		n.mu.Unlock()
		go n.handle(c)
	}
}

func (n *nullServer) handle(c net.Conn) {
	defer n.wg.Done()
	defer c.Close()
	sc := bufio.NewScanner(c)
	w := bufio.NewWriter(c)
	reply := func(s string) bool {
		w.WriteString(s)
		return w.Flush() == nil
	}
	if !reply("OK null ready\n") {
		return
	}
	for sc.Scan() {
		line := sc.Bytes()
		var ok bool
		switch {
		case bytes.HasPrefix(line, []byte("AUTH ")):
			ok = reply("OK null L0\n")
		case bytes.HasPrefix(line, []byte("CHECK ")):
			ok = reply("OK allowed\n")
		case bytes.Equal(line, []byte("QUIT")):
			reply("OK bye\n")
			return
		default:
			ok = reply("ERR unknown command\n")
		}
		if !ok {
			return
		}
	}
}

func (n *nullServer) addr() string { return n.ln.Addr().String() }

// close stops accepting, closes every connection and waits for all
// handlers to return.
func (n *nullServer) close() {
	n.ln.Close()
	n.mu.Lock()
	n.closed = true
	for c := range n.cs {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}
