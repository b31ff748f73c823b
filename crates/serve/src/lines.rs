//! The one line reader the server and the client share: bytes go in
//! as they arrive from the socket, complete `\n`-terminated lines come
//! out in order. Each byte is scanned for `\n` once, however many
//! reads a line spans, so framing stays linear up to `max_frame`.

/// A buffer of received bytes split into lines.
#[derive(Debug, Default)]
pub(crate) struct LineBuf {
    buf: Vec<u8>,
    /// Start of the first line not yet returned.
    start: usize,
    /// `buf[start..scanned]` holds no `\n`.
    scanned: usize,
}

impl LineBuf {
    /// Appends bytes read from the stream.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, without its `\n` (a `\r` before it
    /// stays), or `None` until more bytes arrive.
    pub(crate) fn next_line(&mut self) -> Option<&[u8]> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(i) => {
                let end = self.scanned + i;
                let line = &self.buf[self.start..end];
                self.start = end + 1;
                self.scanned = end + 1;
                Some(line)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Bytes of the unfinished line buffered so far.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line the chunks complete, and the bytes left over.
    fn split(chunks: &[&[u8]]) -> (Vec<Vec<u8>>, usize) {
        let mut buf = LineBuf::default();
        let mut lines = Vec::new();
        for chunk in chunks {
            buf.push(chunk);
            while let Some(line) = buf.next_line() {
                lines.push(line.to_vec());
            }
        }
        (lines, buf.pending())
    }

    #[test]
    fn lines_do_not_depend_on_how_the_stream_is_cut() {
        let stream: &[u8] = b"{\"v\":1,\"op\":\"hello\"}\n\nstats\r\n{\"id\":1}\n{\"id\":2}\npart";
        let want: Vec<Vec<u8>> = [
            &b"{\"v\":1,\"op\":\"hello\"}"[..],
            b"",
            b"stats\r",
            b"{\"id\":1}",
            b"{\"id\":2}",
        ]
        .iter()
        .map(|l| l.to_vec())
        .collect();
        let left = b"part".len();
        assert_eq!(split(&[stream]), (want.clone(), left), "whole");
        for at in 0..=stream.len() {
            let (head, tail) = stream.split_at(at);
            assert_eq!(split(&[head, tail]), (want.clone(), left), "cut at {at}");
        }
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        assert_eq!(split(&bytes), (want, left), "one byte at a time");
    }
}
