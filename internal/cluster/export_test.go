package cluster

// SetMaxReply lowers s's reply bound, so a test can provoke an
// oversized worker reply without allocating one of production size.
func SetMaxReply(s *RemoteShard, n int64) { s.maxReply = n }
