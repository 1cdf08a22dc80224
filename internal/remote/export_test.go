package remote

// RPC exposes the client's retrying round trip to the external tests, which
// need it to send ops no Client method sends.
func (c *Client) RPC(op byte, body []byte) error {
	_, buf, err := c.rpc(op, body)
	putFrameBuf(buf)
	return err
}
