#include "net/frame.h"

namespace fdm::net {

void AppendFrame(std::string_view payload, std::string* out) {
  const size_t at = BeginFrame(out);
  out->append(payload);
  EndFrame(at, out);
}

size_t BeginFrame(std::string* out) {
  const size_t at = out->size();
  out->append(kFrameHeaderBytes, '\0');
  return at;
}

void EndFrame(size_t at, std::string* out, size_t unbuffered) {
  const uint32_t n = static_cast<uint32_t>(out->size() - at -
                                           kFrameHeaderBytes + unbuffered);
  char* header = out->data() + at;
  header[0] = static_cast<char>((n >> 24) & 0xff);
  header[1] = static_cast<char>((n >> 16) & 0xff);
  header[2] = static_cast<char>((n >> 8) & 0xff);
  header[3] = static_cast<char>(n & 0xff);
}

size_t ReleaseIfDrained(std::string& buf) {
  if (buf.capacity() <= kRetainedBufferBytes) return 0;
  if (buf.empty()) {
    std::string().swap(buf);
    return 0;
  }
  return buf.capacity();
}

FrameParse ParseFrame(std::string_view buf, std::string_view* payload,
                      size_t* consumed, size_t max_payload) {
  *consumed = 0;
  if (buf.size() < kFrameHeaderBytes) return FrameParse::kNeedMore;
  const auto b = [&](size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(buf[i]));
  };
  const uint32_t n = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  if (n > max_payload) return FrameParse::kError;
  *consumed = kFrameHeaderBytes + n;
  if (buf.size() < *consumed) return FrameParse::kNeedMore;
  *payload = buf.substr(kFrameHeaderBytes, n);
  return FrameParse::kFrame;
}

}  // namespace fdm::net
