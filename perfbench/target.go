package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// target sends one request to the server under test and returns the
// response status and body.
type target interface {
	send(o *op) (status int, body []byte, err error)
}

// tcpTarget drives a real topkd over one keep-alive loopback connection.
type tcpTarget struct {
	hc   *http.Client
	base string
}

func newTCPTarget(addr string) *tcpTarget {
	return &tcpTarget{
		hc: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				Proxy:               nil,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		base: "http://" + addr,
	}
}

func (t *tcpTarget) send(o *op) (int, []byte, error) {
	method, path, ctype, body := o.request()
	return t.do(method, path, ctype, body)
}

func (t *tcpTarget) do(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// close drops the target's idle connection.
func (t *tcpTarget) close() { t.hc.CloseIdleConnections() }

// stats reads the daemon's /debug/stats.
func (t *tcpTarget) stats() (map[string]any, error) {
	status, body, err := t.do("GET", "/debug/stats", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/debug/stats: status %d", status)
	}
	var out map[string]any
	return out, json.Unmarshal(body, &out)
}

// waitHealthy polls /healthz until the daemon answers 200.
func (t *tcpTarget) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := t.do("GET", "/healthz", "", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/healthz not ready after 30s: status %d, %v", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// statNum reads a number at a dotted path of a /debug/stats document.
func statNum(st map[string]any, path ...string) float64 {
	var cur any = st
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[p]
	}
	f, _ := cur.(float64)
	return f
}
