//go:build never

package buildtags

var Shared = 2
