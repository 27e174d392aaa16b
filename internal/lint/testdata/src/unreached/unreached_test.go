package main

import "testing"

func TestOnly(t *testing.T) {
	testOnly()
	kept()
}
