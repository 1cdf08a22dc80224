package remote

import (
	"net"
	"sync"
	"testing"
)

// TestConnPoolChurnRace hammers the connection pool from several
// goroutines at once: getConn and putConn move conns in and out of the idle
// pool while dropIdle, the flush a transport error triggers, empties it
// under their feet. Every access to c.idle must hold c.mu. Run under -race.
func TestConnPoolChurnRace(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				buf := make([]byte, 256)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}(conn)
		}
	}()

	c := NewClient(ClientOptions{Addr: ln.Addr().String()})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				conn, err := c.getConn()
				if err != nil {
					t.Error(err)
					return
				}
				c.putConn(conn)
				if j%10 == 0 {
					c.dropIdle()
				}
			}
		}()
	}
	wg.Wait()
}
