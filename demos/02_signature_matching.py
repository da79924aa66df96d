"""
Matching credential signatures in carved strings
================================================

Login forms leave recognizable key=value residue in memory.  A small
catalog of per-application signatures (key names plus context URLs)
turns carved strings into findings: who logged in where, with what.
"""

from memsift import MemoryImage, builtin_catalog, scan_image

# the built-in catalog covers six application signatures; Gmail under
# Firefox has no username key, its account name is the GAUSR cookie's
print("catalog:")
for sig in builtin_catalog():
    user = (f"user key={sig.username_keys[0]!r}" if sig.username_keys
            else f"user marker={sig.username_marker!r}")
    print(f"  {sig.app_id:10s}  {user:26s} password key={sig.password_keys[0]!r}")

# an inline match: both keys inside one carved string, with a context URL
# nearby to pin down which application the keys belong to
image = bytearray(64 * 1024)
body = b"uName=306110003&pass=Nitt500&digest=&rememberme="
image[4096 : 4096 + len(body)] = body
url = b"https://vpn.example.edu/auth1.html"
image[4200 : 4200 + len(url)] = url

findings = scan_image(MemoryImage.from_bytes(bytes(image), label="demo"))
for f in findings:
    print(f"\ninline finding at 0x{f.offset:x}:")
    print(f"  app={f.app_id} user={f.username} password={f.password_decoded}")
    print(f"  confidence={f.confidence} (context URL within the window)")

# an adjacent match: Chrome keeps key and value in separate strings, so
# the matcher pairs a bare key string with the very next carved string
image2 = bytearray(64 * 1024)
parts = [b"Email", b"ipsita.chinky@gmail.com", b"Passwd", b"berham!19",
         b"https://accounts.google.com/ServiceLogin"]
off = 8192
for p in parts:
    image2[off : off + len(p)] = p
    off += len(p) + 8  # NUL gaps between the strings

for f in scan_image(MemoryImage.from_bytes(bytes(image2), label="demo2")):
    print(f"\nadjacent finding at 0x{f.offset:x}:")
    print(f"  app={f.app_id} user={f.username} password={f.password_decoded}")
    print(f"  match_mode={f.match_mode}")
