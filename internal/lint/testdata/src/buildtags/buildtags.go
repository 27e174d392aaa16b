package buildtags

// Shared is declared again in a file that builds for no system.
var Shared = 1
